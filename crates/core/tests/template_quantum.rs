//! Quantum-split edge cases of the fast tier's whole-loop templates.
//!
//! The fast tier installs a whole-loop template on reduce-shaped and
//! guarded-update-shaped loops, committing many multi-step iterations
//! per dispatch, so a quantum boundary can land *inside* a template
//! iteration at every offset. This suite drives both shapes chunk by
//! chunk under adversarial quanta (1, 2, small primes,
//! exact-iteration-boundary multiples), asserting **per-chunk** equality
//! of `(steps, pause)`, task position, and cycle count between the
//! reference interpreter and the fast tier, and final-state equality of
//! the registers and heap — including runs that fault out of a template
//! mid-iteration on a heap access.

use proptest::prelude::*;

use tpal_core::isa::{BinOp, Instr, Label, Operand, Reg};
use tpal_core::machine::{Stores, TaskState, Value};
use tpal_core::program::{Program, ProgramBuilder};
use tpal_core::tier::{ExecBackend, ExecTier};

fn op(dst: Reg, op: BinOp, lhs: Reg, rhs: Operand) -> Instr {
    Instr::Op { dst, op, lhs, rhs }
}

fn jump(target: Label) -> Instr {
    Instr::Jump {
        target: Operand::Label(target),
    }
}

fn branch(cond: Reg, target: Label) -> Instr {
    Instr::IfJump {
        cond,
        target: Operand::Label(target),
    }
}

fn hload(dst: Reg, base: Reg, offset: Reg) -> Instr {
    Instr::HLoad {
        dst,
        base,
        offset: Operand::Reg(offset),
    }
}

/// A reduce loop with a configurable accumulate operator and a
/// `2 * pairs`-long straight-line prologue of specialised ALU ops (which
/// shifts where quantum remainders land inside the template).
fn reduce_program(cmp: BinOp, acc_op: BinOp, pairs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let [i, n, a, w, acc, t] = ["i", "n", "a", "w", "acc", "t"].map(|r| b.reg(r));
    let (head, body, exit) = (b.label("head"), b.label("body"), b.label("exit"));
    let mut prologue: Vec<Instr> = (0..pairs * 2)
        .map(|k| {
            let step = if k % 2 == 0 { BinOp::Add } else { BinOp::Sub };
            op(acc, step, acc, Operand::Int(k as i64 + 1))
        })
        .collect();
    prologue.push(jump(head));
    b.block("entry", prologue);
    b.block(
        "head",
        vec![op(t, cmp, i, Operand::Reg(n)), branch(t, body), jump(exit)],
    );
    b.block(
        "body",
        vec![
            hload(w, a, i),
            op(acc, acc_op, acc, Operand::Reg(w)),
            op(i, BinOp::Add, i, Operand::Int(1)),
            jump(head),
        ],
    );
    b.block("exit", vec![Instr::Halt]);
    let entry = b.label("entry");
    b.entry(entry);
    b.build().unwrap()
}

/// One engine's harness: a task plus stores with the array installed.
struct Engine {
    backend: ExecBackend,
    task: TaskState,
    stores: Stores,
}

fn engine(p: &Program, tier: ExecTier, data: &[i64], n: i64) -> Engine {
    let backend = ExecBackend::new(p, tier);
    let mut stores = Stores::new();
    let base = stores.heap.alloc_init(data);
    let mut task = TaskState::new(p, p.entry());
    for (name, v) in [("i", 0), ("n", n), ("a", base), ("acc", 0)] {
        task.regs.write(p.reg(name).unwrap(), Value::Int(v));
    }
    Engine {
        backend,
        task,
        stores,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-chunk agreement on reduce loops: steps, pause (or fault, with
    /// its position), cycles, and final registers, under quanta that
    /// slice the loop template at every offset. `n > len` runs fault on
    /// a heap load mid-template.
    #[test]
    fn reduce_quantum_splits_match(
        len in 0usize..12,
        n in 0i64..24,
        cmp in proptest::sample::select(&[BinOp::Lt, BinOp::Le][..]),
        acc_op in proptest::sample::select(&[BinOp::Add, BinOp::Sub, BinOp::Mul][..]),
        pairs in 0usize..3,
        quanta in proptest::collection::vec(
            // 1 and 2 split every fused op; 3/5/7/11/13 walk the
            // 6-step loop template through every interior offset; 6
            // and 12 are exact template boundaries; MAX never splits.
            proptest::sample::select(&[1u64, 2, 3, 5, 6, 7, 11, 12, 13, u64::MAX][..]),
            1..6),
    ) {
        let p = reduce_program(cmp, acc_op, pairs);
        let data: Vec<i64> = (0..len as i64).map(|x| x * 3 - 5).collect();
        let mut engines = [
            engine(&p, ExecTier::Reference, &data, n),
            engine(&p, ExecTier::Fast, &data, n),
        ];

        let mut ci = 0usize;
        let mut guard = 0u32;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "failed to terminate");
            let q = quanta[ci % quanta.len()];
            ci += 1;
            let results: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let r = e.backend.run_until(&p, &mut e.task, &mut e.stores, q, false);
                    format!("{r:?}")
                })
                .collect();
            prop_assert_eq!(&results[0], &results[1], "fast vs ref, quantum {}", q);
            let positions: Vec<_> = engines
                .iter()
                .map(|e| (e.task.block, e.task.instr, e.task.cycles))
                .collect();
            prop_assert_eq!(positions[0], positions[1], "fast position, quantum {}", q);
            // All agree, so inspect engine 0's result for termination.
            if results[0].contains("Err") || results[0].contains("Boundary") {
                break;
            }
        }
        prop_assert_eq!(&engines[0].task.regs, &engines[1].task.regs);
        prop_assert_eq!(
            engines[0].stores.heap.checksum(),
            engines[1].stores.heap.checksum()
        );
    }
}

/// The guarded-update shape (Floyd–Warshall relaxation): two strided
/// loads, a compare, and a conditional store-back, all run as one
/// whole-loop template by the fast tier.
fn guarded_program() -> Program {
    let mut b = ProgramBuilder::new();
    let [j, n, ra, rb, stride, hb, dd] =
        ["j", "n", "ra", "rb", "stride", "hb", "dd"].map(|r| b.reg(r));
    let [t, x1, x2, a, cand, x3, x4, bb, c, y1, y2] = [
        "t", "x1", "x2", "a", "cand", "x3", "x4", "bb", "c", "y1", "y2",
    ]
    .map(|r| b.reg(r));
    let [head, body, then_b, else_b, endif, exit] =
        ["head", "body", "then_b", "else_b", "endif", "exit"].map(|l| b.label(l));
    let reg = Operand::Reg;
    b.block(
        "head",
        vec![op(t, BinOp::Lt, j, reg(n)), branch(t, body), jump(exit)],
    );
    b.block(
        "body",
        vec![
            op(x1, BinOp::Mul, ra, reg(stride)),
            op(x2, BinOp::Add, x1, reg(j)),
            hload(a, hb, x2),
            op(cand, BinOp::Add, dd, reg(a)),
            op(x3, BinOp::Mul, rb, reg(stride)),
            op(x4, BinOp::Add, x3, reg(j)),
            hload(bb, hb, x4),
            op(c, BinOp::Lt, cand, reg(bb)),
            branch(c, then_b),
            jump(else_b),
        ],
    );
    b.block(
        "then_b",
        vec![
            op(y1, BinOp::Mul, rb, reg(stride)),
            op(y2, BinOp::Add, y1, reg(j)),
            Instr::HStore {
                base: hb,
                offset: reg(y2),
                src: reg(cand),
            },
            jump(endif),
        ],
    );
    b.block("else_b", vec![jump(endif)]);
    b.block(
        "endif",
        vec![op(j, BinOp::Add, j, Operand::Int(1)), jump(head)],
    );
    b.block("exit", vec![Instr::Halt]);
    b.entry(head);
    b.build().unwrap()
}

/// `[n, ra, rb, stride, dd]` initial register values.
fn guarded_engine(p: &Program, tier: ExecTier, data: &[i64], init: [i64; 5]) -> Engine {
    let [n, ra, rb, stride, dd] = init;
    let backend = ExecBackend::new(p, tier);
    let mut stores = Stores::new();
    let base = stores.heap.alloc_init(data);
    let mut task = TaskState::new(p, p.entry());
    for (name, v) in [
        ("j", 0),
        ("n", n),
        ("ra", ra),
        ("rb", rb),
        ("stride", stride),
        ("hb", base),
        ("dd", dd),
    ] {
        task.regs.write(p.reg(name).unwrap(), Value::Int(v));
    }
    Engine {
        backend,
        task,
        stores,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-chunk agreement on guarded-update loops: the
    /// template commits whole iterations (15 steps untaken, 17 taken),
    /// so these quanta land at every interior offset of both paths, and
    /// row indices that run past the allocation fault mid-template.
    #[test]
    fn guarded_quantum_splits_match(
        len in 0usize..12,
        n in 0i64..10,
        ra in 0i64..4,
        rb in 0i64..4,
        stride in 0i64..5,
        dd in -3i64..4,
        quanta in proptest::collection::vec(
            proptest::sample::select(
                &[1u64, 2, 3, 5, 7, 11, 13, 15, 16, 17, 31, u64::MAX][..]),
            1..6),
    ) {
        let p = guarded_program();
        let data: Vec<i64> = (0..len as i64).map(|x| (x * 7) % 5 - 2).collect();
        let mut engines = [
            guarded_engine(&p, ExecTier::Reference, &data, [n, ra, rb, stride, dd]),
            guarded_engine(&p, ExecTier::Fast, &data, [n, ra, rb, stride, dd]),
        ];

        let mut ci = 0usize;
        let mut guard = 0u32;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "failed to terminate");
            let q = quanta[ci % quanta.len()];
            ci += 1;
            let results: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let r = e.backend.run_until(&p, &mut e.task, &mut e.stores, q, false);
                    format!("{r:?}")
                })
                .collect();
            prop_assert_eq!(&results[0], &results[1], "fast vs ref, quantum {}", q);
            let positions: Vec<_> = engines
                .iter()
                .map(|e| (e.task.block, e.task.instr, e.task.cycles))
                .collect();
            prop_assert_eq!(positions[0], positions[1], "fast position, quantum {}", q);
            if results[0].contains("Err") || results[0].contains("Boundary") {
                break;
            }
        }
        prop_assert_eq!(&engines[0].task.regs, &engines[1].task.regs);
        prop_assert_eq!(
            engines[0].stores.heap.checksum(),
            engines[1].stores.heap.checksum()
        );
    }
}
