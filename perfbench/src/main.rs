//! The repository benchmark. One run measures one workload for a fixed
//! time and prints its metrics as the last line of standard output:
//!
//! ```text
//! tpal-perfbench --workload loops|tasks --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` spans are recorded around every call into a layer and
//! the per-layer metrics are printed instead (see `README.md`).

mod native;
mod serve;
mod sim;
mod spans;
mod stats;
mod tally;

use std::process::ExitCode;
use std::time::Instant;

use tpal_core::tier::ExecTier;
use tpal_rt::RtConfig;
use tpal_sim::SplitMix64;
use tpal_workloads::Scale;

use native::KernelSpec;
use serve::Shape;
use spans::{self_times, Tracer};
use stats::{geomean, median};
use tally::Tally;

/// A workload: the kernels run natively, the programs simulated, and
/// the serve traffic. Native and simulated inputs come from
/// `tpal-workloads`' fixed generators; the seed drives only the kernel
/// order within a pass, the request mix and the program salts.
struct Workload {
    kernels: &'static [KernelSpec],
    sim: &'static [&'static str],
    serve: serve::Plan,
}

/// Each kernel runs at the smallest registry scale that gives every
/// heartbeat run at least 100 beats at ♥ = 100 µs. `knapsack` is left
/// out: its serial build explores exclude-first and its parallel build
/// include-first, so the two do different amounts of work and their
/// ratio measures the search order, not heartbeat overhead.
const LOOPS: Workload = Workload {
    kernels: &[
        ("plus-reduce-array", Scale::Full),
        ("spmv-powerlaw", Scale::Full),
        ("mandelbrot", Scale::Quick),
        ("floyd-warshall-large", Scale::Quick),
    ],
    sim: &[
        "plus-reduce-array",
        "spmv-powerlaw",
        "mandelbrot",
        "floyd-warshall-large",
    ],
    serve: serve::Plan {
        shape: Shape::Loop,
        n: 2_000,
        capacity: 5_900.0,
    },
};

/// Fork-join recursion natively and simulated; channel pipelines only
/// simulated, because their native stage threads would oversubscribe a
/// small machine.
const TASKS: Workload = Workload {
    kernels: &[
        ("mergesort-exp", Scale::Quick),
        ("mergesort-uniform", Scale::Quick),
    ],
    sim: &[
        "mergesort-exp",
        "mergesort-uniform",
        "pipeline-tokens",
        "spmv-stream",
    ],
    serve: serve::Plan {
        shape: Shape::Fork,
        n: 14,
        capacity: 4_050.0,
    },
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// About how long one round takes on a 2-core machine; a run makes
/// `--seconds / ROUND_SECONDS` rounds (a fixed count, so every run of a
/// workload does the same work, whatever the machine's speed).
const ROUND_SECONDS: f64 = 4.0;
/// Fewest rounds, however short the run.
const MIN_ROUNDS: usize = 3;
/// Native and simulated passes per round.
const PASSES_PER_ROUND: usize = 2;
/// Repetitions of each per-layer probe in the traced run.
const PROBE_REPS: usize = 3;
const SERVE_PROBE_REPS: usize = 200;

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform in `0..n`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, below(rng, i + 1));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line, or the names of non-finite metrics.
    fn result_line(&self, tally: &Tally) -> Result<String, String> {
        let bad: Vec<&str> = self
            .0
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0.as_str())
            .collect();
        if !bad.is_empty() {
            return Err(format!(
                "metrics without a finite value: {}",
                bad.join(", ")
            ));
        }
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            body.join(", ")
        ))
    }
}

fn provenance(args: &Args, w: &Workload, workers: usize) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let rt = RtConfig::default();
    let scales: Vec<String> = w
        .kernels
        .iter()
        .map(|(k, s)| format!("\"{k}\": \"{s:?}\""))
        .collect();
    format!(
        "{{\"rev\": \"{}\", \"rustc\": \"{}\", \"nproc\": {workers}, \"workers\": {}, \
         \"heartbeat_us\": {}, \"heartbeat_source\": \"{}\", \"poll_adaptive\": {}, \
         \"exec_tier\": \"{}\", \"native_scale\": {{{}}}, \"sim\": \"nautilus({}, {}) Full\", \
         \"serve_rps\": {{\"capacity\": {}, \"light\": {}, \"heavy\": {}}}, \"p99_limit_ms\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        env("PERFBENCH_REV"),
        env("PERFBENCH_RUSTC"),
        rt.workers,
        rt.heartbeat.as_micros(),
        rt.source.label(),
        rt.poll_adaptive,
        ExecTier::default().label(),
        scales.join(", "),
        sim::CORES,
        sim::HEARTBEAT,
        w.serve.capacity,
        w.serve.light(),
        w.serve.heavy(),
        serve::P99_LIMIT_MS,
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpal-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match args.workload.as_str() {
        "loops" => &LOOPS,
        "tasks" => &TASKS,
        other => {
            eprintln!("tpal-perfbench: unknown workload `{other}` (loops|tasks)");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prov = provenance(&args, w, workers);
    println!("provenance {prov}");

    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut tally = Tally::default();
    let mut rng = SplitMix64::new(args.seed);

    // Set-up: inputs, lowering, compile, pools and server, several
    // times over; the last one is measured.
    let mut setup_s = Vec::new();
    let mut setup_rss_mb = f64::NAN;
    let mut compile_times: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        drop(state.take());
        let span = tr.begin("bench.setup", i as u64);
        let t = Instant::now();
        let nat = native::setup(w.kernels, workers, &mut tr);
        let (programs, times) = sim::setup(w.sim, &mut tr);
        let srv = serve::setup(w.serve, workers, &mut rng, &mut tr, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        tr.end(span);
        compile_times.push(times);
        state = Some((nat, programs, srv));
        if i == 0 {
            // The high-water mark of a fresh process holding everything a
            // run needs. Later it drifts by whole kernel buffers with how
            // worker threads happen to share the allocator's arenas.
            setup_rss_mb = peak_rss_mb();
        }
    }
    let (nat, programs, mut srv) = state.expect("at least one set-up");
    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
    }

    // Rounds: each runs native and simulated passes and, in a traced
    // run, one block of requests at every serve rate. Spreading every
    // measurement over the whole run keeps a passing disturbance of the
    // machine (another tenant, a throttled vCPU) from landing on one
    // metric only.
    let rounds = ((args.seconds / ROUND_SECONDS).ceil() as usize).max(MIN_ROUNDS);
    let mut nres = native::NativeResult::new(&nat);
    let mut sres = sim::results(&programs);
    let mut light = serve::RateRun::new(w.serve.light());
    let mut heavy = serve::RateRun::new(w.serve.heavy());
    let mut ladder: Vec<serve::RateRun> = (1..=serve::LADDER_RUNGS as i32)
        .map(|k| serve::RateRun::new(w.serve.heavy() * serve::LADDER_STEP.powi(k)))
        .collect();
    for round in 0..rounds {
        let span = tr.begin("bench.round", round as u64);
        for _ in 0..PASSES_PER_ROUND {
            nres.pass(&nat, &mut rng, &mut tr, &mut tally);
        }
        for _ in 0..PASSES_PER_ROUND {
            sim::pass(&programs, &mut sres, &mut rng, &mut tr, &mut tally);
        }
        if args.trace {
            for _ in 0..serve::BLOCKS_PER_ROUND {
                srv.block(&mut light, &mut rng, &mut tr, &mut tally);
                srv.block(&mut heavy, &mut rng, &mut tr, &mut tally);
            }
            for run in &mut ladder {
                srv.block(run, &mut rng, &mut tr, &mut tally);
            }
        }
        tr.end(span);
    }
    nres.print(workers);
    sim::print(&sres);
    if args.trace {
        for r in [&light, &heavy].into_iter().chain(&ladder) {
            let blocks: Vec<String> = r.block_p99.iter().map(|p| format!("{p:.2}")).collect();
            println!(
                "serve rate {:.0} req/s: p50 {:.3} ms, p99 {:.3} ms (blocks {}), backlog in {} blocks, {}",
                r.rate,
                r.p50(),
                r.p99(),
                blocks.join(" "),
                r.backlogged,
                if r.passes() { "pass" } else { "fail" }
            );
        }
        let mut off = Tracer::new(false, epoch);
        let mut untraced = native::NativeResult::new(&nat);
        for _ in 0..PASSES_PER_ROUND {
            untraced.pass(&nat, &mut rng, &mut off, &mut tally);
        }
        let rt_overhead = native::rt_trace_overhead(&nat, workers, PROBE_REPS, &mut tally);
        native_layer(&mut m, &nres, rt_overhead);
        m.put(
            "trace.bench_overhead_x",
            nres.geomean_median(|k| &k.hbn) / untraced.geomean_median(|k| &k.hbn),
            "ratio",
        );
        let extras: Vec<sim::Extra> = programs
            .iter()
            .map(|p| sim::extra(p, PROBE_REPS, &mut tally))
            .collect();
        sim_layer(&mut m, &sres, &extras, &compile_times);
        let probes = serve::probes(w.serve, SERVE_PROBE_REPS, &mut tr, &mut tally);
        serve_layer(&mut m, &probes, &light, &heavy, &ladder, srv.counters());
    } else {
        m.put("rt_ms", nres.geomean_median(|k| &k.hbn), "ms");
        m.put("rt_1w_vs_serial", nres.overhead_1w(), "ratio");
        m.put("sim_ms", sim::sim_ms(&sres), "ms");
        m.put(
            "sim_makespan_mcycles",
            sim::makespan_mcycles(&sres),
            "Mcycles",
        );
    }
    drop((nat, programs, srv));

    println!(
        "ops: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    if args.trace {
        let selfs = self_times(tr.spans());
        for layer in [
            "bench",
            "workloads",
            "rt",
            "cilk",
            "ir",
            "core",
            "sim",
            "serve",
        ] {
            m.put(
                format!("{layer}.self_ms"),
                selfs.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        let path = format!(".bench_out/spans-{}-{}.json", args.workload, args.seed);
        let doc = format!("{{\"provenance\": {prov},\n\"spans\": {}}}\n", tr.to_json());
        match std::fs::create_dir_all(".bench_out").and_then(|_| std::fs::write(&path, doc)) {
            Ok(()) => println!("spans: {} written to {path}", tr.spans().len()),
            Err(e) => println!("spans: not written ({e})"),
        }
        m.put("bench.peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        m.put("peak_rss_mb", setup_rss_mb, "MB");
    }

    match m.result_line(&tally) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tpal-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn native_layer(m: &mut Metrics, nres: &native::NativeResult, rt_overhead_x: f64) {
    m.put(
        "workloads.serial_ms",
        nres.geomean_median(|k| &k.serial),
        "ms",
    );
    let c = &nres.counters;
    let runs = nres.hb_runs as f64;
    m.put("rt.ms", nres.geomean_median(|k| &k.hbn), "ms");
    m.put("rt.1w_ms", nres.geomean_median(|k| &k.hb1), "ms");
    m.put(
        "rt.beats_delivered",
        c.heartbeats_delivered as f64 / runs,
        "count/run",
    );
    m.put(
        "rt.beats_serviced",
        c.heartbeats_serviced as f64 / runs,
        "count/run",
    );
    m.put("rt.service_ratio", c.service_ratio(), "ratio");
    m.put(
        "rt.promotions_per_beat",
        ratio(c.promotions as f64, c.heartbeats_delivered as f64),
        "ratio",
    );
    m.put(
        "rt.tasks_created",
        c.tasks_created as f64 / runs,
        "count/run",
    );
    m.put("rt.steals", c.steals as f64 / runs, "count/run");
    m.put(
        "rt.steals_per_promotion",
        ratio(c.steals as f64, c.promotions as f64),
        "ratio",
    );
    let most = nres.shard_tasks.iter().max().copied().unwrap_or(0) as f64;
    let least = nres.shard_tasks.iter().min().copied().unwrap_or(0) as f64;
    m.put("rt.shard_imbalance", (most + 1.0) / (least + 1.0), "ratio");
    m.put("rt.anomalies", nres.anomalies().len() as f64, "count");
    m.put("cilk.ms", nres.geomean_median(|k| &k.cilk), "ms");
    let vs: Vec<f64> = nres
        .kernels
        .iter()
        .map(|k| median(&k.cilk) / median(&k.hbn))
        .collect();
    m.put("cilk.vs_rt", geomean(&vs), "ratio");
    m.put("trace.rt_overhead_x", rt_overhead_x, "ratio");
}

fn sim_layer(
    m: &mut Metrics,
    sres: &[sim::ProgramResult],
    extras: &[sim::Extra],
    compile_times: &[Vec<(f64, f64)>],
) {
    let per_program = |pick: fn(&(f64, f64)) -> f64| {
        let medians: Vec<f64> = (0..sres.len())
            .map(|p| {
                median(
                    &compile_times
                        .iter()
                        .map(|t| pick(&t[p]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        geomean(&medians)
    };
    m.put("ir.lower_ms", per_program(|t| t.0), "ms");
    m.put("core.compile_ms", per_program(|t| t.1), "ms");
    let over = |f: &dyn Fn(&sim::ProgramResult, &sim::Extra) -> f64| {
        geomean(
            &sres
                .iter()
                .zip(extras)
                .map(|(r, e)| f(r, e))
                .collect::<Vec<_>>(),
        )
    };
    m.put(
        "core.minstr_per_s",
        over(&|_, e| e.serial_instr_per_s / 1e6),
        "Minstr/s",
    );
    m.put("sim.ms", sim::sim_ms(sres), "ms");
    m.put(
        "sim.minstr_per_s",
        over(&|r, _| r.stats.instructions as f64 / median(&r.ms) / 1e3),
        "Minstr/s",
    );
    m.put(
        "sim.speedup_simulated",
        over(&|r, e| e.serial_makespan as f64 / r.makespan as f64),
        "ratio",
    );
    m.put("sim.utilization", over(&|r, _| r.utilization), "ratio");
    let sum =
        |f: fn(&tpal_sim::SimStats) -> u64| sres.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    m.put(
        "sim.overhead_mcycles",
        sum(|s| s.overhead_cycles) / 1e6,
        "Mcycles",
    );
    m.put("sim.idle_mcycles", sum(|s| s.idle_cycles) / 1e6, "Mcycles");
    m.put(
        "sim.steal_success",
        ratio(sum(|s| s.steals), sum(|s| s.steals + s.failed_steals)),
        "ratio",
    );
    m.put("sim.chan_blocks", sum(|s| s.chan_blocks), "count");
    // The exec tier's share of a simulation, estimated from the 1-core
    // serial instruction rate; the rest is the event engine.
    let exec_ms: f64 = sres
        .iter()
        .zip(extras)
        .map(|(r, e)| r.stats.instructions as f64 / e.serial_instr_per_s * 1e3)
        .sum();
    let host_ms: f64 = sres.iter().map(|r| median(&r.ms)).sum();
    m.put("sim.engine_share", 1.0 - exec_ms / host_ms, "ratio");
    m.put(
        "trace.sim_overhead_x",
        over(&|_, e| e.trace_overhead_x),
        "ratio",
    );
}

fn serve_layer(
    m: &mut Metrics,
    p: &serve::Probes,
    light: &serve::RateRun,
    heavy: &serve::RateRun,
    ladder: &[serve::RateRun],
    (hits, misses, decodes, shed): (u64, u64, u64, f64),
) {
    let rungs: Vec<(f64, f64, bool)> = [light, heavy]
        .into_iter()
        .chain(ladder)
        .map(|r| (r.rate, r.p99(), r.passes()))
        .collect();
    m.put("serve.p50_ms.light", light.p50(), "ms");
    m.put("serve.p99_ms.light", light.p99(), "ms");
    m.put("serve.p50_ms.heavy", heavy.p50(), "ms");
    m.put("serve.p99_ms.heavy", heavy.p99(), "ms");
    m.put(
        "serve.max_rps",
        serve::max_rps(&rungs, serve::P99_LIMIT_MS),
        "req/s",
    );
    m.put("serve.parse_us", p.parse_us, "us");
    m.put("serve.lookup_us.hit", p.lookup_us, "us");
    m.put("serve.compile_us.miss", p.compile_us, "us");
    m.put("serve.exec_us", p.exec_us, "us");
    m.put("serve.replay_us", p.replay_us, "us");
    // What the client waited beyond parsing and executing: HTTP, the
    // admission queue and serialisation.
    for (name, r) in [
        ("serve.residual_us.light", light),
        ("serve.residual_us.heavy", heavy),
    ] {
        m.put(
            name,
            median(&r.latency_ms) * 1e3 - p.parse_us - p.exec_us,
            "us",
        );
    }
    let lateness: Vec<f64> = light
        .lateness_ms
        .iter()
        .chain(&heavy.lateness_ms)
        .copied()
        .collect();
    m.put(
        "serve.lateness_ms",
        lateness.iter().sum::<f64>() / lateness.len() as f64,
        "ms",
    );
    m.put("serve.hits", hits as f64, "count");
    m.put("serve.misses", misses as f64, "count");
    m.put("serve.decodes", decodes as f64, "count");
    m.put("serve.shed", shed, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_order() {
        let a = permutation(&mut SplitMix64::new(7), 10);
        assert_eq!(a, permutation(&mut SplitMix64::new(7), 10));
        assert_ne!(a, permutation(&mut SplitMix64::new(8), 10));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn non_finite_metrics_refuse_a_result_line() {
        let mut m = Metrics::default();
        m.put("rt_ms", 1.5, "ms");
        let t = Tally {
            attempted: 3,
            failed: 1,
        };
        let line = m.result_line(&t).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"rt_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        m.put("sim_ms", f64::NAN, "ms");
        assert!(m.result_line(&t).is_err());
    }

    #[test]
    fn a_failed_simulation_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        m.put("sim_ms", 2.5, "ms");
        let mut t = Tally::default();
        t.check("sim mergesort-exp", 7, 7);
        // A simulation that returns an error, such as a deadlock, has no
        // wrong register to compare, yet the run is not correct.
        t.fail("sim pipeline-tokens", "deadlock");
        let line = m.result_line(&t).unwrap();
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"),
            "{line}"
        );
    }
}
