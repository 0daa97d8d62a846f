//! The fast exec tier as the simulator sees it: which lowered workload
//! programs get whole-loop templates, and how a pre-compiled backend
//! interacts with the configured tier.

use tpal_core::decoded::{DecodedProgram, LoopTemplate};
use tpal_core::programs::prod;
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_ir::lower::{lower, Mode};
use tpal_sim::{Sim, SimConfig};
use tpal_workloads::{workload, Scale};

/// The templates the fast tier installs over a workload's lowered
/// heartbeat program, in micro-op order.
fn templates(name: &str) -> Vec<LoopTemplate> {
    let spec = workload(name)
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
    let d = DecodedProgram::decode(&lowered.program);
    (0..d.uop_count())
        .filter_map(|pc| d.loop_template(pc))
        .collect()
}

/// The templates fire on the loop shapes they were written for and on
/// nothing else. Timing cannot catch a template that silently stops
/// matching after a lowering change; this can.
#[test]
fn lowered_heartbeat_programs_install_the_expected_templates() {
    let reduce = templates("plus-reduce-array");
    assert!(
        reduce.contains(&LoopTemplate::Reduce),
        "plus-reduce-array: {reduce:?}"
    );
    for name in ["floyd-warshall-small", "floyd-warshall-large"] {
        let found = templates(name);
        assert!(
            found.contains(&LoopTemplate::GuardedUpdate),
            "{name}: {found:?}"
        );
    }
    for name in ["mandelbrot", "mergesort-uniform"] {
        assert_eq!(templates(name), [], "{name}");
    }
}

/// A backend compiled for one tier runs under a config naming another:
/// the backend's tier wins, and the run is bit-identical to one
/// configured for that tier.
#[test]
fn with_backend_takes_the_tier_from_the_backend() {
    let p = prod();
    let run = |backend: ExecBackend, tier: ExecTier| {
        let mut config = SimConfig::nautilus(4, 100);
        config.exec_tier = tier;
        let mut sim = Sim::with_backend(&p, backend, config);
        sim.set_reg("a", 300).unwrap();
        sim.set_reg("b", 7).unwrap();
        let out = sim.run().unwrap();
        assert_eq!(out.read_reg("c"), Some(2100));
        (out.time, out.stats, out.final_regs().to_vec())
    };
    let fast = ExecBackend::new(&p, ExecTier::Fast);
    let reference = ExecBackend::new(&p, ExecTier::Reference);
    let matched = run(fast.clone(), ExecTier::Fast);
    assert_eq!(run(fast, ExecTier::Reference), matched);
    assert_eq!(run(reference, ExecTier::Fast), matched);
}
