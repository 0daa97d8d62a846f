//! The native phase: each kernel serial, then heartbeat on 1 and on
//! `nproc` workers, then Cilk-style eager on `nproc` workers, through
//! `tpal-workloads`' prepared kernels on `tpal_rt::Runtime` and
//! `tpal_cilk::CilkRuntime` with the defaults a user gets.

use std::time::Instant;

use tpal_cilk::CilkRuntime;
use tpal_rt::{RtConfig, RtStats, Runtime};
use tpal_sim::SplitMix64;
use tpal_workloads::{run_cilk_on, run_heartbeat_on, workload, Prepared, Scale};

use crate::permutation;
use crate::spans::Tracer;
use crate::stats::{geomean, median, quantile, rel_iqr};
use crate::tally::Tally;

/// A kernel and the input scale it runs at.
pub type KernelSpec = (&'static str, Scale);

/// Prepared inputs plus the three pools, built once per setup.
pub struct Native {
    kernels: Vec<(&'static str, Box<dyn Prepared>)>,
    rt1: Runtime,
    rtn: Runtime,
    cilk: CilkRuntime,
}

/// Milliseconds per run of one kernel in each configuration.
#[derive(Default)]
pub struct KernelTimes {
    /// Kernel name.
    pub name: &'static str,
    /// Plain serial kernel.
    pub serial: Vec<f64>,
    /// Heartbeat kernel on one worker.
    pub hb1: Vec<f64>,
    /// Heartbeat kernel on `nproc` workers.
    pub hbn: Vec<f64>,
    /// Eager kernel on `nproc` workers.
    pub cilk: Vec<f64>,
}

/// What the native phase measured.
pub struct NativeResult {
    /// Per-kernel samples.
    pub kernels: Vec<KernelTimes>,
    /// `nproc`-worker heartbeat counters summed over the measured runs.
    pub counters: RtStats,
    /// Per-worker shards of `tasks_created` over the measured runs.
    pub shard_tasks: Vec<u64>,
    /// Heartbeat runs on `nproc` workers the counters cover.
    pub hb_runs: u64,
    passes: usize,
}

/// Builds inputs and pools. Spans: `workloads.prepare`, `rt.start`,
/// `cilk.start`.
pub fn setup(kernels: &[KernelSpec], workers: usize, tr: &mut Tracer) -> Native {
    let kernels = kernels
        .iter()
        .map(|&(name, scale)| {
            let w = workload(name).expect("kernel is in the tpal-workloads registry");
            (name, tr.time("workloads.prepare", 0, || w.prepare(scale)))
        })
        .collect();
    Native {
        kernels,
        rt1: tr.time("rt.start", 0, || {
            Runtime::new(RtConfig::default().workers(1))
        }),
        rtn: tr.time("rt.start", 0, || {
            Runtime::new(RtConfig::default().workers(workers))
        }),
        cilk: tr.time("cilk.start", 0, || CilkRuntime::new(workers)),
    }
}

/// Runs `f` twice and checks both results: an untimed warm-up, then the
/// timed run, in milliseconds. The warm-up wakes every worker of the
/// pool (on a virtual machine, a vCPU left idle through the previous
/// single-threaded run can take milliseconds to be scheduled again) and
/// brings the input into cache, so the timed run sees the steady state
/// of a longer job.
fn warm_then_time(
    tr: &mut Tracer,
    span: &'static str,
    req: u64,
    op: &str,
    expected: i64,
    tally: &mut Tally,
    f: impl Fn() -> i64,
) -> f64 {
    let got = tr.time(span, req, &f);
    tally.check(op, got, expected);
    let id = tr.begin(span, req);
    let t = Instant::now();
    let got = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.end(id);
    tally.check(op, got, expected);
    ms
}

fn add(a: &mut RtStats, before: &RtStats, after: &RtStats) {
    a.promotions += after.promotions - before.promotions;
    a.tasks_created += after.tasks_created - before.tasks_created;
    a.steals += after.steals - before.steals;
    a.heartbeats_serviced += after.heartbeats_serviced - before.heartbeats_serviced;
    a.heartbeats_delivered += after.heartbeats_delivered - before.heartbeats_delivered;
}

impl NativeResult {
    /// No samples yet; resets the `nproc` pool's counters.
    pub fn new(n: &Native) -> NativeResult {
        n.rtn.reset_stats();
        NativeResult {
            kernels: n
                .kernels
                .iter()
                .map(|(name, _)| KernelTimes {
                    name,
                    ..KernelTimes::default()
                })
                .collect(),
            counters: RtStats::default(),
            shard_tasks: Vec::new(),
            hb_runs: 0,
            passes: 0,
        }
    }

    /// One pass over the kernels, in an order drawn from `rng`.
    pub fn pass(&mut self, n: &Native, rng: &mut SplitMix64, tr: &mut Tracer, tally: &mut Tally) {
        let span = tr.begin("bench.native_pass", self.passes as u64);
        for k in permutation(rng, n.kernels.len()) {
            let (name, p) = (&n.kernels[k].0, &*n.kernels[k].1);
            let req = (self.passes * n.kernels.len() + k) as u64;
            let expected = p.expected();
            let t = &mut self.kernels[k];

            let ms = warm_then_time(
                tr,
                "workloads.serial",
                req,
                &format!("serial {name}"),
                expected,
                tally,
                || p.run_serial(),
            );
            t.serial.push(ms);

            let op = format!("heartbeat@1 {name}");
            let ms = warm_then_time(tr, "rt.run_1w", req, &op, expected, tally, || {
                run_heartbeat_on(&n.rt1, p)
            });
            t.hb1.push(ms);

            let before = n.rtn.stats();
            let op = format!("heartbeat@n {name}");
            let ms = warm_then_time(tr, "rt.run", req, &op, expected, tally, || {
                run_heartbeat_on(&n.rtn, p)
            });
            add(&mut self.counters, &before, &n.rtn.stats());
            self.hb_runs += 2;
            t.hbn.push(ms);

            let op = format!("cilk@n {name}");
            let ms = warm_then_time(tr, "cilk.run", req, &op, expected, tally, || {
                run_cilk_on(&n.cilk, p)
            });
            t.cilk.push(ms);
        }
        self.shard_tasks = n
            .rtn
            .per_worker_stats()
            .iter()
            .map(|s| s.tasks_created)
            .collect();
        self.passes += 1;
        tr.end(span);
    }

    /// Prints each kernel's medians, then any anomaly.
    pub fn print(&self, workers: usize) {
        for k in &self.kernels {
            println!(
                "kernel {}: serial {:.3} ms, heartbeat@1 {:.3} ms, heartbeat@{workers} {:.3} ms \
                 (spread {:.3}), cilk@{workers} {:.3} ms ({} passes)",
                k.name,
                median(&k.serial),
                median(&k.hb1),
                median(&k.hbn),
                rel_iqr(&k.hbn),
                median(&k.cilk),
                k.serial.len()
            );
        }
        for a in self.anomalies() {
            println!("ANOMALY {a}");
        }
    }

    /// Geomean over kernels of the median of one configuration.
    pub fn geomean_median(&self, pick: impl Fn(&KernelTimes) -> &Vec<f64>) -> f64 {
        geomean(
            &self
                .kernels
                .iter()
                .map(|k| median(pick(k)))
                .collect::<Vec<_>>(),
        )
    }

    /// Geomean over kernels of (median 1-worker heartbeat / median
    /// serial): the paper's single-core overhead.
    pub fn overhead_1w(&self) -> f64 {
        geomean(
            &self
                .kernels
                .iter()
                .map(|k| median(&k.hb1) / median(&k.serial))
                .collect::<Vec<_>>(),
        )
    }

    /// Kernels whose 1-worker heartbeat median beats the serial median
    /// by more than the wider of the two interquartile ranges: the
    /// heartbeat build should never be faster than the plain serial
    /// loop, so such a kernel does different work in its two builds.
    pub fn anomalies(&self) -> Vec<String> {
        self.kernels
            .iter()
            .filter_map(|k| {
                let spread = iqr(&k.serial).max(iqr(&k.hb1));
                let (s, h) = (median(&k.serial), median(&k.hb1));
                (h < s - spread).then(|| {
                    format!(
                        "{}: heartbeat@1 {h:.3} ms < serial {s:.3} ms by more than \
                         the spread {spread:.3} ms ({:.2}x)",
                        k.name,
                        h / s
                    )
                })
            })
            .collect()
    }
}

fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// The tracing cost of the runtime itself: geomean over kernels of the
/// median `nproc`-worker heartbeat time with `RtConfig::trace` on over
/// the same with it off, `reps` alternating runs each.
pub fn rt_trace_overhead(n: &Native, workers: usize, reps: usize, tally: &mut Tally) -> f64 {
    let traced = Runtime::new(RtConfig::default().workers(workers).trace(true));
    let ratios: Vec<f64> = n
        .kernels
        .iter()
        .map(|(name, p)| {
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                for (rt, out) in [(&n.rtn, &mut off), (&traced, &mut on)] {
                    let t = Instant::now();
                    let got = run_heartbeat_on(rt, &**p);
                    out.push(t.elapsed().as_secs_f64());
                    drop(rt.take_trace());
                    tally.check(&format!("heartbeat@n traced {name}"), got, p.expected());
                }
            }
            median(&on) / median(&off)
        })
        .collect();
    geomean(&ratios)
}
