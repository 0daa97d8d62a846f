//! The simulated phase: each program lowered by `tpal_ir::lower`,
//! compiled once by `ExecBackend::new`, and run on `Sim::with_backend`
//! under `SimConfig::nautilus(15, 3000)` on the default exec tier.

use std::time::Instant;

use tpal_core::tier::ExecBackend;
use tpal_ir::lower::{lower, Lowered, Mode};
use tpal_sim::{Sim, SimConfig, SimOutcome, SimStats, SplitMix64};
use tpal_workloads::{workload, Scale, SimSpec};

use crate::permutation;
use crate::spans::Tracer;
use crate::stats::{geomean, median};
use crate::tally::Tally;

/// Simulated cores and heartbeat (cycles) of every simulated run.
pub const CORES: usize = 15;
/// See [`CORES`].
pub const HEARTBEAT: u64 = 3_000;

/// The configuration every simulated run uses.
pub fn config() -> SimConfig {
    SimConfig::nautilus(CORES, HEARTBEAT)
}

/// One program, lowered and compiled.
pub struct Program {
    name: &'static str,
    spec: SimSpec,
    lowered: Lowered,
    backend: ExecBackend,
}

/// Builds every program. Spans: `workloads.sim_spec`, `ir.lower`,
/// `core.compile`; the lowering and compile times are also returned
/// (milliseconds, per program) for the per-layer report.
pub fn setup(names: &[&'static str], tr: &mut Tracer) -> (Vec<Program>, Vec<(f64, f64)>) {
    let tier = config().exec_tier;
    let mut times = Vec::new();
    let programs = names
        .iter()
        .map(|&name| {
            let w = workload(name).expect("program is in the tpal-workloads registry");
            let spec = tr.time("workloads.sim_spec", 0, || w.sim_spec(Scale::Full));
            let t = Instant::now();
            let lowered = tr.time("ir.lower", 0, || lower(&spec.ir, Mode::Heartbeat));
            let lower_ms = t.elapsed().as_secs_f64() * 1e3;
            let lowered = lowered.expect("registry programs lower");
            let t = Instant::now();
            let backend = tr.time("core.compile", 0, || {
                ExecBackend::new(&lowered.program, tier)
            });
            times.push((lower_ms, t.elapsed().as_secs_f64() * 1e3));
            Program {
                name,
                spec,
                lowered,
                backend,
            }
        })
        .collect();
    (programs, times)
}

/// Runs `lowered` with `spec`'s inputs; returns host milliseconds of
/// `Sim::run` alone and the outcome.
fn run_once(
    lowered: &Lowered,
    backend: ExecBackend,
    spec: &SimSpec,
    config: SimConfig,
    tr: &mut Tracer,
    req: u64,
) -> (f64, Result<SimOutcome, String>) {
    let mut sim = Sim::with_backend(&lowered.program, backend, config);
    for (name, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        if let Err(e) = sim.set_reg(&lowered.param_reg(name), base) {
            return (0.0, Err(e.to_string()));
        }
    }
    for (name, v) in &spec.input.ints {
        if let Err(e) = sim.set_reg(&lowered.param_reg(name), *v) {
            return (0.0, Err(e.to_string()));
        }
    }
    let id = tr.begin("sim.run", req);
    let t = thread_cpu_ms();
    let out = sim.run();
    let ms = thread_cpu_ms() - t;
    tr.end(id);
    (ms, out.map_err(|e| e.to_string()))
}

/// CPU time the calling thread has used, in milliseconds. `Sim::run`
/// is single-threaded, so this is its host time without the intervals
/// in which the thread was not running: preemption by other processes,
/// and on a virtual machine with paravirtual steal accounting the time
/// the host took the vCPU away, which varies between runs far more than
/// the simulator does.
fn thread_cpu_ms() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is available on Linux");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// What one program measured.
pub struct ProgramResult {
    /// Program name.
    pub name: &'static str,
    /// Host milliseconds of `Sim::run`, one per correct pass.
    pub ms: Vec<f64>,
    /// The first correct pass's stats; every later pass must repeat
    /// them.
    pub stats: SimStats,
    /// Simulated makespan in cycles.
    pub makespan: u64,
    /// Simulated utilization.
    pub utilization: f64,
}

/// No samples yet, one entry per program.
pub fn results(programs: &[Program]) -> Vec<ProgramResult> {
    programs
        .iter()
        .map(|p| ProgramResult {
            name: p.name,
            ms: Vec::new(),
            stats: SimStats::default(),
            makespan: 0,
            utilization: 0.0,
        })
        .collect()
}

/// One pass over the programs, in an order drawn from `rng`. A wrong
/// result register, or stats or makespan that differ from the first
/// pass, fails the operation.
pub fn pass(
    programs: &[Program],
    results: &mut [ProgramResult],
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let span = tr.begin("bench.sim_pass", 0);
    for k in permutation(rng, programs.len()) {
        let (p, r) = (&programs[k], &mut results[k]);
        let op = format!("sim {}", p.name);
        let req = (r.ms.len() * programs.len() + k) as u64;
        let (t, out) = run_once(&p.lowered, p.backend.clone(), &p.spec, config(), tr, req);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                tally.fail(&op, &e);
                continue;
            }
        };
        let got = out.read_reg(&p.lowered.result_reg).unwrap_or(i64::MIN);
        if !tally.check(&op, got, p.spec.expected) {
            continue;
        }
        if r.ms.is_empty() {
            r.stats = out.stats;
            r.makespan = out.time;
            r.utilization = out.utilization();
        } else if r.stats != out.stats || r.makespan != out.time {
            tally.fail(&op, "simulated stats differ between passes");
            continue;
        }
        r.ms.push(t);
    }
    tr.end(span);
}

/// Prints each program's median host time and simulated figures.
pub fn print(results: &[ProgramResult]) {
    for r in results {
        println!(
            "sim {}: {:.3} ms host, makespan {} cycles, {} instructions, \
             utilization {:.3} ({} passes)",
            r.name,
            median(&r.ms),
            r.makespan,
            r.stats.instructions,
            r.utilization,
            r.ms.len()
        );
    }
}

/// Geomean over programs of the median host time of `Sim::run`.
pub fn sim_ms(results: &[ProgramResult]) -> f64 {
    geomean(&results.iter().map(|r| median(&r.ms)).collect::<Vec<_>>())
}

/// Geomean over programs of the simulated makespan, in Mcycles.
pub fn makespan_mcycles(results: &[ProgramResult]) -> f64 {
    geomean(
        &results
            .iter()
            .map(|r| r.makespan as f64 / 1e6)
            .collect::<Vec<_>>(),
    )
}

/// Per-program figures the traced run adds: the 1-core serial
/// simulation (instruction rate of the exec tier without scheduler
/// events, and the serial makespan) and the cost of
/// `SimConfig::record_trace`.
pub struct Extra {
    /// Serial-lowering, 1-core, no-interrupt instructions per second.
    pub serial_instr_per_s: f64,
    /// Serial makespan in cycles.
    pub serial_makespan: u64,
    /// Median host time with `record_trace` on over off.
    pub trace_overhead_x: f64,
}

/// Measures [`Extra`] for one program with `reps` runs per setting.
pub fn extra(p: &Program, reps: usize, tally: &mut Tally) -> Extra {
    let mut off = Tracer::new(false, Instant::now());
    let op = format!("sim {} (per-layer)", p.name);
    let serial = lower(&p.spec.ir, Mode::Serial).expect("registry programs lower");
    let serial_cfg = SimConfig::serial();
    let serial_backend = ExecBackend::new(&serial.program, serial_cfg.exec_tier);
    let mut serial_ms = Vec::new();
    let mut serial_out = None;
    for _ in 0..reps {
        let (ms, out) = run_once(
            &serial,
            serial_backend.clone(),
            &p.spec,
            serial_cfg,
            &mut off,
            0,
        );
        serial_ms.push(ms);
        serial_out = Some(out);
    }
    let (mut on, mut plain) = (Vec::new(), Vec::new());
    let mut traced = config();
    traced.record_trace = true;
    for _ in 0..reps {
        for (cfg, out) in [(config(), &mut plain), (traced, &mut on)] {
            let (ms, res) = run_once(&p.lowered, p.backend.clone(), &p.spec, cfg, &mut off, 0);
            match res {
                Ok(o) => {
                    tally.check(
                        &op,
                        o.read_reg(&p.lowered.result_reg).unwrap_or(i64::MIN),
                        p.spec.expected,
                    );
                }
                Err(e) => tally.fail(&op, &e),
            }
            out.push(ms);
        }
    }
    let (instructions, serial_makespan) = match serial_out {
        Some(Ok(o)) => {
            tally.check(
                &op,
                o.read_reg(&serial.result_reg).unwrap_or(i64::MIN),
                p.spec.expected,
            );
            (o.stats.instructions, o.time)
        }
        Some(Err(e)) => {
            tally.fail(&op, &e);
            (0, 0)
        }
        None => (0, 0),
    };
    Extra {
        serial_instr_per_s: instructions as f64 / (median(&serial_ms) / 1e3),
        serial_makespan,
        trace_overhead_x: median(&on) / median(&plain),
    }
}
