//! `mergesort`: the suite's only benchmark mixing recursive parallelism
//! with a parallel loop (§4.1): the sort recursion is fork-join, and the
//! copy-back from the merge buffer is a parallel loop. Inputs come from
//! uniform and exponential distributions, as in the paper.

use tpal_cilk::{cilk_for, cilk_spawn2};
use tpal_ir::ast::{CallSpec, Expr, Function, IrProgram, ParFor, Stmt};
use tpal_rt::WorkerCtx;

use crate::inputs::{exponential_ints, uniform_ints};
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Below this size, sort insertion-style (the Cilk suite's base case).
const CUTOFF: usize = 32;

fn insertion_sort(a: &mut [i64]) {
    for i in 1..a.len() {
        let x = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > x {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = x;
    }
}

/// Serial two-finger merge of `a[lo..mid]` and `a[mid..hi]` into
/// `tmp[lo..hi]`.
fn merge_into(a: &[i64], tmp: &mut [i64], lo: usize, mid: usize, hi: usize) {
    let (mut i, mut j, mut k) = (lo, mid, lo);
    while i < mid && j < hi {
        if a[i] <= a[j] {
            tmp[k] = a[i];
            i += 1;
        } else {
            tmp[k] = a[j];
            j += 1;
        }
        k += 1;
    }
    while i < mid {
        tmp[k] = a[i];
        i += 1;
        k += 1;
    }
    while j < hi {
        tmp[k] = a[j];
        j += 1;
        k += 1;
    }
}

fn serial_sort(a: &mut [i64], tmp: &mut [i64], lo: usize, hi: usize) {
    if hi - lo <= CUTOFF {
        insertion_sort(&mut a[lo..hi]);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    serial_sort(a, tmp, lo, mid);
    serial_sort(a, tmp, mid, hi);
    merge_into(a, tmp, lo, mid, hi);
    a[lo..hi].copy_from_slice(&tmp[lo..hi]);
}

fn checksum(a: &[i64]) -> i64 {
    let mut h = 0i64;
    let mut sorted = 0i64; // 0 = sorted (the TPAL truth encoding!)
    for i in 0..a.len() {
        h = h.wrapping_add(a[i].wrapping_mul(1 + (i as i64 % 9)));
        if i > 0 && a[i - 1] > a[i] {
            sorted = 1;
        }
    }
    h.wrapping_add(sorted.wrapping_mul(0x5AD))
}

/// The expected checksum of `data` sorted. The checksum of a sorted
/// sequence does not depend on how it was sorted, so the oracle uses the
/// standard library's sort rather than the serial build it checks.
fn oracle(data: &[i64]) -> i64 {
    let mut sorted = data.to_vec();
    sorted.sort_unstable();
    checksum(&sorted)
}

/// Parallel sort: recursion via the given fork-join, copy-back via the
/// given parallel loop. The two halves touch disjoint index ranges of
/// both buffers.
fn parallel_sort(
    a: crate::SyncPtr,
    tmp: crate::SyncPtr,
    lo: usize,
    hi: usize,
    ctx: &WorkerCtx<'_>,
    eager: bool,
) {
    // SAFETY: throughout, this recursion owns `a[lo..hi]` and
    // `tmp[lo..hi]` exclusively; subcalls partition the range.
    if hi - lo <= CUTOFF {
        unsafe { insertion_sort(std::slice::from_raw_parts_mut(a.as_ptr().add(lo), hi - lo)) };
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (a0, a1) = (
        crate::SyncPtr::new(a.as_ptr()),
        crate::SyncPtr::new(a.as_ptr()),
    );
    let (t0, t1) = (
        crate::SyncPtr::new(tmp.as_ptr()),
        crate::SyncPtr::new(tmp.as_ptr()),
    );
    let run_l = move |ctx: &WorkerCtx<'_>| parallel_sort(a0, t0, lo, mid, ctx, eager);
    let run_r = move |ctx: &WorkerCtx<'_>| parallel_sort(a1, t1, mid, hi, ctx, eager);
    if eager {
        cilk_spawn2(ctx, run_l, run_r);
    } else {
        ctx.join2(run_l, run_r);
    }
    // SAFETY: both halves are complete; we own [lo, hi).
    unsafe {
        let av = std::slice::from_raw_parts(a.as_ptr(), hi);
        let tv = std::slice::from_raw_parts_mut(tmp.as_ptr(), hi);
        merge_into(av, tv, lo, mid, hi);
    }
    // Parallel copy-back (the paper's parallel-loop component).
    let (ac, tc) = (
        crate::SyncPtr::new(a.as_ptr()),
        crate::SyncPtr::new(tmp.as_ptr()),
    );
    let body = move |_: &WorkerCtx<'_>, i: usize| {
        // SAFETY: disjoint indices within our owned range.
        unsafe { ac.write(i, tc.read(i)) };
    };
    if eager {
        cilk_for(ctx, lo..hi, &body);
    } else {
        ctx.parallel_for(lo..hi, body);
    }
}

/// The `mergesort-*` workloads.
pub struct Mergesort {
    name: &'static str,
    exponential: bool,
}

impl Mergesort {
    /// Uniformly distributed input.
    pub fn uniform() -> Mergesort {
        Mergesort {
            name: "mergesort-uniform",
            exponential: false,
        }
    }

    /// Exponentially distributed input.
    pub fn exponential() -> Mergesort {
        Mergesort {
            name: "mergesort-exp",
            exponential: true,
        }
    }

    fn input(&self, n: usize) -> Vec<i64> {
        if self.exponential {
            exponential_ints(n, 0xE4B)
        } else {
            uniform_ints(n, 0xE4A)
        }
    }
}

struct PreparedSort {
    data: Vec<i64>,
    expected: i64,
}

impl PreparedSort {
    fn run_parallel(&self, ctx: &WorkerCtx<'_>, eager: bool) -> i64 {
        let mut a = self.data.clone();
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        parallel_sort(
            crate::SyncPtr::new(a.as_mut_ptr()),
            crate::SyncPtr::new(tmp.as_mut_ptr()),
            0,
            n,
            ctx,
            eager,
        );
        checksum(&a)
    }
}

impl Prepared for PreparedSort {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut a = self.data.clone();
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        serial_sort(&mut a, &mut tmp, 0, n);
        checksum(&a)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        self.run_parallel(ctx, false)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        self.run_parallel(ctx, true)
    }
}

impl Workload for Mergesort {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_recursive(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(600_000, 10_000_000);
        let data = self.input(n);
        let expected = oracle(&data);
        Box::new(PreparedSort { data, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(12_000, 60_000);
        let data = self.input(n);
        let expected = oracle(&data);
        let v = Expr::var;
        let i = Expr::int;

        // msort(a, tmp, lo, hi): recursive sort with latent fork-join and
        // a parallel copy-back loop.
        let msort = Function::new("msort", ["a", "tmp", "lo", "hi"])
            .stmt(Stmt::if_(
                v("hi").sub(v("lo")).le(i(CUTOFF as i64)),
                vec![
                    // Insertion sort a[lo..hi].
                    Stmt::for_(
                        "p",
                        v("lo").add(i(1)),
                        v("hi"),
                        vec![
                            Stmt::assign("x", v("a").load(v("p"))),
                            Stmt::assign("q", v("p")),
                            // The IR `and` is strict, so the guard and the
                            // load must be sequenced with a flag.
                            Stmt::assign("go", i(0)),
                            Stmt::While {
                                cond: v("q").gt(v("lo")).and(v("go").eq_(i(0))),
                                body: vec![Stmt::if_else(
                                    v("a").load(v("q").sub(i(1))).gt(v("x")),
                                    vec![
                                        Stmt::store(v("a"), v("q"), v("a").load(v("q").sub(i(1)))),
                                        Stmt::assign("q", v("q").sub(i(1))),
                                    ],
                                    vec![Stmt::assign("go", i(1))],
                                )],
                            },
                            Stmt::store(v("a"), v("q"), v("x")),
                        ],
                    ),
                    Stmt::Return(i(0)),
                ],
            ))
            .stmt(Stmt::assign(
                "mid",
                v("lo").add(v("hi").sub(v("lo")).div(i(2))),
            ))
            .stmt(Stmt::Par2 {
                left: CallSpec::new("msort", vec![v("a"), v("tmp"), v("lo"), v("mid")], "dl"),
                right: CallSpec::new("msort", vec![v("a"), v("tmp"), v("mid"), v("hi")], "dr"),
            })
            // Two-finger merge into tmp[lo..hi].
            .stmt(Stmt::assign("ii", v("lo")))
            .stmt(Stmt::assign("jj", v("mid")))
            .stmt(Stmt::assign("kk", v("lo")))
            .stmt(Stmt::While {
                cond: v("ii").lt(v("mid")).and(v("jj").lt(v("hi"))),
                body: vec![
                    Stmt::if_else(
                        v("a").load(v("ii")).le(v("a").load(v("jj"))),
                        vec![
                            Stmt::store(v("tmp"), v("kk"), v("a").load(v("ii"))),
                            Stmt::assign("ii", v("ii").add(i(1))),
                        ],
                        vec![
                            Stmt::store(v("tmp"), v("kk"), v("a").load(v("jj"))),
                            Stmt::assign("jj", v("jj").add(i(1))),
                        ],
                    ),
                    Stmt::assign("kk", v("kk").add(i(1))),
                ],
            })
            .stmt(Stmt::While {
                cond: v("ii").lt(v("mid")),
                body: vec![
                    Stmt::store(v("tmp"), v("kk"), v("a").load(v("ii"))),
                    Stmt::assign("ii", v("ii").add(i(1))),
                    Stmt::assign("kk", v("kk").add(i(1))),
                ],
            })
            .stmt(Stmt::While {
                cond: v("jj").lt(v("hi")),
                body: vec![
                    Stmt::store(v("tmp"), v("kk"), v("a").load(v("jj"))),
                    Stmt::assign("jj", v("jj").add(i(1))),
                    Stmt::assign("kk", v("kk").add(i(1))),
                ],
            })
            // Parallel copy-back.
            .stmt(Stmt::ParFor(ParFor::new("c", v("lo"), v("hi")).body(vec![
                Stmt::store(v("a"), v("c"), v("tmp").load(v("c"))),
            ])))
            .stmt(Stmt::Return(i(0)));

        let main = Function::new("main", ["a", "tmp", "n"])
            .stmt(Stmt::call(
                "msort",
                vec![v("a"), v("tmp"), i(0), v("n")],
                None,
            ))
            // Checksum with sortedness flag.
            .stmt(Stmt::assign("h", i(0)))
            .stmt(Stmt::assign("bad", i(0)))
            .stmt(Stmt::for_(
                "p",
                i(0),
                v("n"),
                vec![
                    Stmt::assign(
                        "h",
                        v("h").add(v("a").load(v("p")).mul(v("p").rem(i(9)).add(i(1)))),
                    ),
                    Stmt::if_(
                        v("p").gt(i(0)),
                        vec![Stmt::if_(
                            v("a").load(v("p").sub(i(1))).gt(v("a").load(v("p"))),
                            vec![Stmt::assign("bad", i(1))],
                        )],
                    ),
                ],
            ))
            .stmt(Stmt::Return(v("h").add(v("bad").mul(i(0x5AD)))));

        SimSpec {
            ir: IrProgram::new("main").function(main).function(msort),
            input: SimInput::default()
                .array("a", data)
                .array("tmp", vec![0; n])
                .int("n", n as i64),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_sort_small() {
        let mut a = vec![5, 3, 8, 1, 9, 2];
        insertion_sort(&mut a);
        assert_eq!(a, vec![1, 2, 3, 5, 8, 9]);
    }

    #[test]
    fn serial_sort_sorts() {
        let mut a = uniform_ints(10_000, 42);
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        serial_sort(&mut a, &mut tmp, 0, n);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn oracle_agrees_with_serial_sort() {
        for data in [uniform_ints(5_000, 7), exponential_ints(5_000, 8)] {
            let mut a = data.clone();
            let mut tmp = vec![0i64; a.len()];
            let n = a.len();
            serial_sort(&mut a, &mut tmp, 0, n);
            assert_eq!(oracle(&data), checksum(&a));
        }
    }

    #[test]
    fn checksum_flags_unsorted() {
        let sorted = vec![1, 2, 3];
        let unsorted = vec![3, 2, 1];
        assert_ne!(checksum(&sorted), checksum(&unsorted));
    }
}
