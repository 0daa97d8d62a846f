//! `knapsack`: branch-and-bound 0/1 knapsack (from the Cilk suite,
//! §4.1; 36 items in the paper). The only non-deterministic benchmark in
//! the suite: the *amount of work* depends on how fast good incumbents
//! propagate between tasks through the shared best-so-far bound, though
//! the final optimum is always the same.

use std::sync::atomic::{AtomicI64, Ordering};

use tpal_cilk::cilk_spawn2;
use tpal_ir::ast::{CallSpec, Expr, Function, IrProgram, Stmt};
use tpal_rt::WorkerCtx;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Problem instance: weights and values, sorted by value density
/// (descending) so the simple fractional bound is admissible.
#[derive(Debug, Clone)]
struct Instance {
    w: Vec<i64>,
    v: Vec<i64>,
    cap: i64,
}

fn instance(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<(i64, i64)> = (0..n)
        .map(|_| (rng.gen_range(5i64..=60), rng.gen_range(5i64..=60)))
        .collect();
    // Sort by density v/w descending.
    items.sort_by(|a, b| (b.1 * a.0).cmp(&(a.1 * b.0)));
    let total_w: i64 = items.iter().map(|x| x.0).sum();
    Instance {
        w: items.iter().map(|x| x.0).collect(),
        v: items.iter().map(|x| x.1).collect(),
        cap: total_w / 2,
    }
}

/// Admissible upper bound for the subtree at `idx`: current value plus
/// the remaining capacity filled at the best remaining density
/// (rounded up).
#[inline]
fn bound(ins: &Instance, idx: usize, cap: i64, val: i64) -> i64 {
    if idx >= ins.w.len() {
        return val;
    }
    val + (cap * ins.v[idx] + ins.w[idx] - 1) / ins.w[idx]
}

#[cfg(test)]
thread_local! {
    /// Search-tree nodes visited on this thread, so tests can check that
    /// the serial and parallel builds explore the same tree.
    static NODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn visit() {
    #[cfg(test)]
    NODES.with(|n| n.set(n.get() + 1));
}

/// Tries including item `idx` before excluding it, the order the
/// parallel build and the IR program fork in, so that with no
/// promotions all builds search the same tree.
fn serial_rec(ins: &Instance, idx: usize, cap: i64, val: i64, best: &mut i64) -> i64 {
    visit();
    if idx == ins.w.len() {
        if val > *best {
            *best = val;
        }
        return val;
    }
    if bound(ins, idx, cap, val) <= *best {
        return val;
    }
    if ins.w[idx] <= cap {
        let l = serial_rec(ins, idx + 1, cap - ins.w[idx], val + ins.v[idx], best);
        l.max(serial_rec(ins, idx + 1, cap, val, best))
    } else {
        serial_rec(ins, idx + 1, cap, val, best)
    }
}

fn parallel_rec(
    ins: &Instance,
    idx: usize,
    cap: i64,
    val: i64,
    best: &AtomicI64,
    ctx: &WorkerCtx<'_>,
    eager: bool,
) -> i64 {
    visit();
    if idx == ins.w.len() {
        best.fetch_max(val, Ordering::Relaxed);
        return val;
    }
    if bound(ins, idx, cap, val) <= best.load(Ordering::Relaxed) {
        return val;
    }
    if ins.w[idx] <= cap {
        let run_l = |ctx: &WorkerCtx<'_>| {
            parallel_rec(
                ins,
                idx + 1,
                cap - ins.w[idx],
                val + ins.v[idx],
                best,
                ctx,
                eager,
            )
        };
        let run_r = |ctx: &WorkerCtx<'_>| parallel_rec(ins, idx + 1, cap, val, best, ctx, eager);
        let (l, r) = if eager {
            // `cilk_spawn2` runs its continuation inline first, so the
            // inclusion branch goes there to keep the include-first order.
            let (r, l) = cilk_spawn2(ctx, run_r, run_l);
            (l, r)
        } else {
            ctx.join2(run_l, run_r)
        };
        l.max(r)
    } else {
        parallel_rec(ins, idx + 1, cap, val, best, ctx, eager)
    }
}

/// The `knapsack` workload.
pub struct Knapsack;

struct PreparedKnap {
    ins: Instance,
    expected: i64,
}

impl Prepared for PreparedKnap {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut best = 0i64;
        serial_rec(&self.ins, 0, self.ins.cap, 0, &mut best)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let best = AtomicI64::new(0);
        parallel_rec(&self.ins, 0, self.ins.cap, 0, &best, ctx, false)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let best = AtomicI64::new(0);
        parallel_rec(&self.ins, 0, self.ins.cap, 0, &best, ctx, true)
    }
}

impl Workload for Knapsack {
    fn name(&self) -> &'static str {
        "knapsack"
    }

    fn is_recursive(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(28, 34);
        let ins = instance(n, 0x6A5A);
        let mut best = 0i64;
        let expected = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        Box::new(PreparedKnap { ins, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(16, 20);
        let ins = instance(n, 0x6A5A);
        let mut best = 0i64;
        let expected = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        let v = Expr::var;
        let i = Expr::int;

        // knap(wp, vp, bestp, n, idx, cap, val): branch and bound with
        // the incumbent in a shared heap cell (monotone pruning only —
        // racy updates can weaken pruning but never the optimum).
        let knap = Function::new("knap", ["wp", "vp", "bestp", "n", "idx", "cap", "val"])
            .stmt(Stmt::if_(
                v("idx").eq_(v("n")),
                vec![
                    Stmt::if_(
                        v("val").gt(v("bestp").load(i(0))),
                        vec![Stmt::store(v("bestp"), i(0), v("val"))],
                    ),
                    Stmt::Return(v("val")),
                ],
            ))
            .stmt(Stmt::assign("wi", v("wp").load(v("idx"))))
            .stmt(Stmt::assign("vi", v("vp").load(v("idx"))))
            .stmt(Stmt::assign(
                "ub",
                v("val").add(v("cap").mul(v("vi")).add(v("wi")).sub(i(1)).div(v("wi"))),
            ))
            .stmt(Stmt::if_(
                v("ub").le(v("bestp").load(i(0))),
                vec![Stmt::Return(v("val"))],
            ))
            .stmt(Stmt::if_else(
                v("wi").le(v("cap")),
                vec![
                    Stmt::Par2 {
                        left: CallSpec::new(
                            "knap",
                            vec![
                                v("wp"),
                                v("vp"),
                                v("bestp"),
                                v("n"),
                                v("idx").add(i(1)),
                                v("cap").sub(v("wi")),
                                v("val").add(v("vi")),
                            ],
                            "l",
                        ),
                        right: CallSpec::new(
                            "knap",
                            vec![
                                v("wp"),
                                v("vp"),
                                v("bestp"),
                                v("n"),
                                v("idx").add(i(1)),
                                v("cap"),
                                v("val"),
                            ],
                            "r",
                        ),
                    },
                    Stmt::Return(v("l").max(v("r"))),
                ],
                vec![
                    Stmt::call(
                        "knap",
                        vec![
                            v("wp"),
                            v("vp"),
                            v("bestp"),
                            v("n"),
                            v("idx").add(i(1)),
                            v("cap"),
                            v("val"),
                        ],
                        Some("r"),
                    ),
                    Stmt::Return(v("r")),
                ],
            ));

        let main = Function::new("main", ["wp", "vp", "bestp", "n", "cap"])
            .stmt(Stmt::call(
                "knap",
                vec![v("wp"), v("vp"), v("bestp"), v("n"), i(0), v("cap"), i(0)],
                Some("out"),
            ))
            .stmt(Stmt::Return(v("out")));

        SimSpec {
            ir: IrProgram::new("main").function(main).function(knap),
            input: SimInput::default()
                .array("wp", ins.w.clone())
                .array("vp", ins.v.clone())
                .array("bestp", vec![0])
                .int("n", n as i64)
                .int("cap", ins.cap),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_finds_optimum_on_tiny_instance() {
        // Items (w, v): capacity 10. Optimum: items of value 60+50=110?
        let ins = Instance {
            w: vec![5, 5, 6],
            v: vec![60, 50, 40],
            cap: 10,
        };
        let mut best = 0;
        assert_eq!(serial_rec(&ins, 0, ins.cap, 0, &mut best), 110);
    }

    #[test]
    fn instance_sorted_by_density() {
        let ins = instance(20, 1);
        for k in 1..20 {
            // v[k-1]/w[k-1] >= v[k]/w[k]  ⇔  v[k-1]·w[k] >= v[k]·w[k-1]
            assert!(ins.v[k - 1] * ins.w[k] >= ins.v[k] * ins.w[k - 1]);
        }
    }

    #[test]
    fn serial_and_one_worker_parallel_builds_visit_the_same_nodes() {
        let ins = instance(28, 0x6A5A);
        let nodes = || NODES.with(|n| n.replace(0));
        nodes();
        let mut best = 0;
        let serial = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        let serial_nodes = nodes();
        let rt = tpal_rt::Runtime::new(
            tpal_rt::RtConfig::default()
                .workers(1)
                .suppress_promotions(true),
        );
        let (parallel, parallel_nodes) = rt.run(|ctx| {
            nodes();
            let best = AtomicI64::new(0);
            let r = parallel_rec(&ins, 0, ins.cap, 0, &best, ctx, false);
            (r, nodes())
        });
        let cilk = tpal_cilk::CilkRuntime::new(1);
        let (eager, eager_nodes) = cilk.run(|ctx| {
            nodes();
            let best = AtomicI64::new(0);
            let r = parallel_rec(&ins, 0, ins.cap, 0, &best, ctx, true);
            (r, nodes())
        });
        assert_eq!(parallel, serial);
        assert_eq!(eager, serial);
        assert!(serial_nodes > 1_000, "{serial_nodes} nodes");
        assert_eq!(parallel_nodes, serial_nodes);
        assert_eq!(eager_nodes, serial_nodes);
    }

    #[test]
    fn bound_is_admissible() {
        let ins = instance(12, 2);
        let mut best = 0;
        let opt = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        assert!(bound(&ins, 0, ins.cap, 0) >= opt);
    }
}
