//! The reference executor: runs a TPAL program's task set under a
//! deterministic scheduling policy with heartbeat promotion and cost
//! accounting.
//!
//! This executor models a single abstract processor multiplexing the task
//! set (the big-step evaluation of Figure 30 linearised into small steps).
//! True multicore execution, with per-core heartbeat timers, steal costs,
//! and delivery-latency models, lives in the `tpal-sim` crate and reuses
//! the same single-step semantics.

use std::collections::VecDeque;

use crate::cost::CostGraph;
use crate::isa::Label;
use crate::machine::stack::PromotionOrder;
use crate::machine::step::{
    resolve_join, step_task, JoinResolution, RunPause, StepOutcome, Stores, TaskCost, TaskState,
};
use crate::machine::value::{MachineError, RegFile, Value};
use crate::program::Program;
use crate::tier::{ExecBackend, ExecTier};

/// How the reference executor interleaves runnable tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// After a fork, keep running the parent; children queue FIFO. This is
    /// the serial-like order a single worker produces under work stealing
    /// with no thieves.
    #[default]
    ParentFirst,
    /// After a fork, run the child immediately; the parent queues. (The
    /// depth-first order of Cilk-style continuation stealing.)
    ChildFirst,
    /// Rotate through runnable tasks every `quantum` instructions.
    RoundRobin {
        /// Instructions per turn.
        quantum: u64,
    },
    /// Pick a random runnable task every `quantum` instructions, from a
    /// deterministic seed.
    Random {
        /// RNG seed.
        seed: u64,
        /// Instructions per turn.
        quantum: u64,
    },
}

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// The heartbeat threshold ♥, in instructions. A task triggers a
    /// heartbeat interrupt at the next promotion-ready program point once
    /// its cycle counter exceeds this. `u64::MAX` disables heartbeats
    /// (serial-by-default execution).
    ///
    /// ♥ must exceed the length of the longest heartbeat-handler *abort*
    /// path in the program, or a task at a promotion-ready point with no
    /// promotable parallelism re-triggers the interrupt forever — the
    /// formal model has the same requirement, which real deployments meet
    /// trivially (♥ ≈ 100µs versus a handler of a few dozen cycles). The
    /// executor's step limit converts such livelocks into
    /// [`MachineError::StepLimitExceeded`].
    pub heartbeat: u64,
    /// The fork-join cost weight τ of the cost semantics (Figure 28),
    /// charged to work and span at every join merge.
    pub tau: u64,
    /// Abort execution after this many total instructions.
    pub step_limit: u64,
    /// Task interleaving policy.
    pub policy: SchedulePolicy,
    /// Build the explicit series-parallel cost graph of the execution
    /// (Figure 28) alongside the incremental work/span counters; the
    /// graph is returned in [`Outcome::cost_graph`]. Costs O(forks)
    /// memory.
    pub build_cost_graph: bool,
    /// Which promotion-ready mark `prmsplit` pops: the paper's
    /// outermost-first policy, or its innermost-first ablation foil.
    pub promotion_order: PromotionOrder,
    /// Which interpreter tier executes straight-line stretches. All
    /// tiers are bit-identical in outcome (see [`crate::tier`]).
    pub exec_tier: ExecTier,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            heartbeat: 100,
            tau: 10,
            step_limit: 500_000_000,
            policy: SchedulePolicy::ParentFirst,
            build_cost_graph: false,
            promotion_order: PromotionOrder::OldestFirst,
            exec_tier: ExecTier::default(),
        }
    }
}

impl MachineConfig {
    /// A configuration with heartbeats disabled: the program runs its
    /// serial-by-default path only.
    pub fn serial() -> Self {
        MachineConfig {
            heartbeat: u64::MAX,
            ..MachineConfig::default()
        }
    }

    /// Sets the heartbeat threshold.
    pub fn with_heartbeat(mut self, heartbeat: u64) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Sets the fork-join cost weight.
    pub fn with_tau(mut self, tau: u64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables explicit cost-graph construction.
    pub fn with_cost_graph(mut self) -> Self {
        self.build_cost_graph = true;
        self
    }

    /// Sets the promotion order (default: the paper's outermost-first).
    pub fn with_promotion_order(mut self, order: PromotionOrder) -> Self {
        self.promotion_order = order;
        self
    }

    /// Sets the execution tier (default: fast).
    pub fn with_exec_tier(mut self, tier: ExecTier) -> Self {
        self.exec_tier = tier;
        self
    }
}

/// Counters collected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total instructions executed across all tasks.
    pub instructions: u64,
    /// Number of `fork` instructions executed (tasks created).
    pub forks: u64,
    /// Number of heartbeat interrupts serviced (handler diversions).
    pub promotions: u64,
    /// Number of `join` instructions executed.
    pub joins: u64,
    /// Number of pair merges performed during join resolution.
    pub merges: u64,
    /// High-water mark of simultaneously live tasks.
    pub max_live_tasks: usize,
    /// Number of `detach` instructions executed (detached tasks created).
    pub detaches: u64,
    /// Number of items pushed through channels.
    pub chan_pushes: u64,
    /// Number of items popped from channels.
    pub chan_pops: u64,
    /// Number of times a task parked on a full or empty channel.
    pub chan_blocks: u64,
    /// Detached tasks still live when the machine halted (0 means the
    /// pipeline quiesced: every detached task retired through its own
    /// `halt` before the main task's).
    pub detached_live_at_halt: usize,
}

/// The result of running a machine to completion.
#[derive(Debug, Clone)]
pub struct Outcome {
    final_regs: Option<RegFile>,
    reg_names: Vec<String>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Total work per the cost semantics: every instruction weighs 1 and
    /// every fork-join weighs τ.
    pub work: u64,
    /// Critical-path length (span) per the cost semantics.
    pub span: u64,
    /// The explicit cost graph, when
    /// [`MachineConfig::build_cost_graph`] was set. Its
    /// [`CostGraph::work`]/[`CostGraph::span`] at the configured τ equal
    /// [`Outcome::work`]/[`Outcome::span`].
    pub cost_graph: Option<CostGraph>,
}

impl Outcome {
    /// Reads an integer register from the halting task's register file.
    ///
    /// Returns `None` if the machine did not halt through a `halt`
    /// instruction, the name is unknown, or the register holds a
    /// non-integer.
    pub fn read_reg(&self, name: &str) -> Option<i64> {
        let idx = self.reg_names.iter().position(|n| n == name)?;
        match self
            .final_regs
            .as_ref()?
            .read_raw(crate::isa::Reg(idx as u32))
        {
            Value::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The halting task's full register file, if the machine halted.
    pub fn final_regs(&self) -> Option<&RegFile> {
        self.final_regs.as_ref()
    }

    /// Average parallelism: work divided by span.
    pub fn parallelism(&self) -> f64 {
        self.work as f64 / self.span.max(1) as f64
    }
}

/// A tiny deterministic RNG (SplitMix64) for the random schedule policy;
/// kept internal so core has no external dependencies.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference executor for TPAL programs.
///
/// See the crate-level example for typical use: construct, seed argument
/// registers with [`Machine::set_reg`], then [`Machine::run`].
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    backend: ExecBackend,
    config: MachineConfig,
    stores: Stores,
    initial: Option<TaskState>,
}

impl<'p> Machine<'p> {
    /// Creates a machine whose initial task starts at the program's entry
    /// block.
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        Machine::with_entry(program, config, program.entry())
    }

    /// Creates a machine whose initial task starts at `entry`.
    pub fn with_entry(program: &'p Program, config: MachineConfig, entry: Label) -> Self {
        let mut initial = TaskState::new(program, entry);
        if config.build_cost_graph {
            initial.cost = Some(TaskCost::new());
        }
        let mut stores = Stores::new();
        stores.stacks.set_promotion_order(config.promotion_order);
        Machine {
            program,
            backend: ExecBackend::new(program, config.exec_tier),
            config,
            stores,
            initial: Some(initial),
        }
    }

    /// Seeds an integer argument register of the initial task.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownName`] if the program never names `name`.
    pub fn set_reg(&mut self, name: &str, value: i64) -> Result<(), MachineError> {
        self.set_value(name, Value::Int(value))
    }

    /// Seeds an arbitrary value into an argument register.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownName`] if the program never names `name`.
    pub fn set_value(&mut self, name: &str, value: Value) -> Result<(), MachineError> {
        let reg = self.program.reg(name).ok_or(MachineError::UnknownName)?;
        self.initial
            .as_mut()
            .expect("machine already run")
            .regs
            .write(reg, value);
        Ok(())
    }

    /// Gives the initial task a fresh stack in register `name` (equivalent
    /// to an `snew` performed by a caller).
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownName`] if the program never names `name`.
    pub fn set_fresh_stack(&mut self, name: &str) -> Result<(), MachineError> {
        let sp = self.stores.stacks.snew();
        self.set_value(name, Value::Stack(sp))
    }

    /// Allocates and initialises a heap array before the run, returning
    /// its base address (typically then seeded into an argument register
    /// with [`Machine::set_reg`]).
    pub fn alloc_array(&mut self, data: &[i64]) -> i64 {
        self.stores.heap.alloc_init(data)
    }

    /// Allocates a zeroed heap array of `len` words before the run.
    pub fn alloc_zeroed(&mut self, len: usize) -> i64 {
        self.stores.heap.alloc(len)
    }

    /// Read access to the machine's heap (e.g. to extract output arrays
    /// after [`Machine::run`]).
    pub fn heap(&self) -> &crate::machine::heap::Heap {
        &self.stores.heap
    }

    /// Runs the machine to completion.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a task; [`MachineError::Deadlock`]
    /// if the task set drains without a `halt`;
    /// [`MachineError::StepLimitExceeded`] if the step limit is hit.
    pub fn run(&mut self) -> Result<Outcome, MachineError> {
        let program = self.program;
        let config = self.config;
        let mut stats = ExecStats::default();
        let mut rng = match config.policy {
            SchedulePolicy::Random { seed, .. } => SplitMix64(seed ^ 0xA076_1D64_78BD_642F),
            _ => SplitMix64(0),
        };

        let mut queue: VecDeque<TaskState> = VecDeque::new();
        queue.push_back(self.initial.take().expect("machine already run"));

        let mut halted: Option<TaskState> = None;
        // Tasks parked on a channel, in park order: pushers blocked on a
        // full channel, poppers blocked on an empty one. Wakes are FIFO
        // per channel (a close wakes poppers first, then pushers), so
        // the interleaving is deterministic.
        let mut parked_push: VecDeque<(i64, TaskState)> = VecDeque::new();
        let mut parked_pop: VecDeque<(i64, TaskState)> = VecDeque::new();
        // Live detached tasks (quiescence counter).
        let mut detached_live: usize = 0;

        'outer: while let Some(mut task) = {
            // Pick the next task per policy.
            match config.policy {
                SchedulePolicy::Random { quantum: _, .. } if queue.len() > 1 => {
                    let i = rng.below(queue.len());
                    queue.swap(0, i);
                    queue.pop_front()
                }
                _ => queue.pop_front(),
            }
        } {
            let mut slice: u64 = 0;
            let quantum = match config.policy {
                SchedulePolicy::RoundRobin { quantum } | SchedulePolicy::Random { quantum, .. } => {
                    quantum
                }
                _ => u64::MAX,
            };
            // Straight-line stretches run batched through the configured
            // exec tier; the batch budget is the least of the three
            // events the per-step reference loop would notice — heartbeat
            // expiry (the poll fires once `cycles` exceeds ♥), the end of
            // the scheduling slice, and the global step limit. Boundaries
            // and promotions are then handled exactly as the per-step
            // loop handles them.
            'inner: loop {
                let watch = task.cycles > config.heartbeat;
                let until_hb = if watch {
                    u64::MAX
                } else {
                    (config.heartbeat - task.cycles).saturating_add(1)
                };
                let until_quantum = if queue.is_empty() {
                    u64::MAX
                } else {
                    quantum.saturating_sub(slice).max(1)
                };
                let until_limit = config
                    .step_limit
                    .saturating_add(1)
                    .saturating_sub(stats.instructions);
                let max_steps = until_hb.min(until_quantum).min(until_limit);

                let (steps, pause) = self.backend.run_until(
                    self.program,
                    &mut task,
                    &mut self.stores,
                    max_steps,
                    watch,
                )?;
                stats.instructions += steps;
                if stats.instructions > config.step_limit {
                    return Err(MachineError::StepLimitExceeded {
                        limit: config.step_limit,
                    });
                }
                slice += steps;

                match pause {
                    RunPause::Quantum => {}
                    RunPause::PromotionReady => {
                        let handler = task
                            .at_promotion_point(program)
                            .expect("PromotionReady pause implies a prppt entry");
                        task.divert_to_handler(handler);
                        stats.promotions += 1;
                    }
                    RunPause::Boundary => match step_task(program, &mut task, &mut self.stores)? {
                        StepOutcome::Ran => {
                            stats.instructions += 1;
                            if stats.instructions > config.step_limit {
                                return Err(MachineError::StepLimitExceeded {
                                    limit: config.step_limit,
                                });
                            }
                            slice += 1;
                        }
                        StepOutcome::Halted => {
                            stats.instructions += 1;
                            if task.detached {
                                // A detached task's halt retires only
                                // itself; the machine continues.
                                detached_live -= 1;
                                continue 'outer;
                            }
                            stats.detached_live_at_halt = detached_live;
                            halted = Some(task);
                            break 'outer;
                        }
                        StepOutcome::Forked { child } => {
                            stats.forks += 1;
                            match config.policy {
                                SchedulePolicy::ChildFirst => {
                                    queue.push_front(task);
                                    task = *child;
                                }
                                _ => queue.push_back(*child),
                            }
                            stats.max_live_tasks = stats.max_live_tasks.max(queue.len() + 1);
                            stats.instructions += 1;
                            if stats.instructions > config.step_limit {
                                return Err(MachineError::StepLimitExceeded {
                                    limit: config.step_limit,
                                });
                            }
                            slice += 1;
                        }
                        StepOutcome::Joined { jr } => {
                            stats.instructions += 1;
                            stats.joins += 1;
                            match resolve_join(program, task, jr, &mut self.stores, config.tau)? {
                                JoinResolution::TaskDied => continue 'outer,
                                JoinResolution::Merged(resumed) => {
                                    stats.merges += 1;
                                    task = *resumed;
                                    continue 'inner;
                                }
                                JoinResolution::Completed(resumed) => {
                                    task = *resumed;
                                    continue 'inner;
                                }
                            }
                        }
                        StepOutcome::Detached { child } => {
                            stats.detaches += 1;
                            detached_live += 1;
                            match config.policy {
                                SchedulePolicy::ChildFirst => {
                                    queue.push_front(task);
                                    task = *child;
                                }
                                _ => queue.push_back(*child),
                            }
                            stats.max_live_tasks = stats
                                .max_live_tasks
                                .max(queue.len() + 1 + parked_push.len() + parked_pop.len());
                            stats.instructions += 1;
                            if stats.instructions > config.step_limit {
                                return Err(MachineError::StepLimitExceeded {
                                    limit: config.step_limit,
                                });
                            }
                            slice += 1;
                        }
                        StepOutcome::ChanPushed { ch } => {
                            stats.instructions += 1;
                            stats.chan_pushes += 1;
                            slice += 1;
                            // One item appeared: wake the oldest parked
                            // popper of this channel, if any.
                            if let Some(i) = parked_pop.iter().position(|&(c, _)| c == ch) {
                                let (_, t) = parked_pop.remove(i).expect("index in range");
                                queue.push_back(t);
                            }
                        }
                        StepOutcome::ChanPopped { ch } => {
                            stats.instructions += 1;
                            stats.chan_pops += 1;
                            slice += 1;
                            // One slot freed: wake the oldest parked
                            // pusher of this channel, if any.
                            if let Some(i) = parked_push.iter().position(|&(c, _)| c == ch) {
                                let (_, t) = parked_push.remove(i).expect("index in range");
                                queue.push_back(t);
                            }
                        }
                        StepOutcome::ChanClosed { ch } => {
                            stats.instructions += 1;
                            slice += 1;
                            // Wake everyone parked on the channel:
                            // poppers first (they drain the buffer),
                            // then pushers (they fault on retry).
                            while let Some(i) = parked_pop.iter().position(|&(c, _)| c == ch) {
                                let (_, t) = parked_pop.remove(i).expect("index in range");
                                queue.push_back(t);
                            }
                            while let Some(i) = parked_push.iter().position(|&(c, _)| c == ch) {
                                let (_, t) = parked_push.remove(i).expect("index in range");
                                queue.push_back(t);
                            }
                        }
                        StepOutcome::ChanBlocked { ch, push } => {
                            // Not a step: park the task until a partner
                            // wakes it.
                            stats.chan_blocks += 1;
                            if push {
                                parked_push.push_back((ch, task));
                            } else {
                                parked_pop.push_back((ch, task));
                            }
                            continue 'outer;
                        }
                    },
                }
                if slice >= quantum && !queue.is_empty() {
                    queue.push_back(task);
                    continue 'outer;
                }
            }
        }

        let (work, span, final_regs, cost_graph) = match halted {
            Some(mut t) => (
                t.rel_work,
                t.rel_span,
                Some(t.regs),
                t.cost.as_mut().map(TaskCost::flush),
            ),
            None => {
                if queue.is_empty() {
                    return Err(MachineError::Deadlock);
                }
                unreachable!("loop exits only on halt or empty queue")
            }
        };

        Ok(Outcome {
            final_regs,
            reg_names: (0..program.reg_count())
                .map(|i| program.reg_name(crate::isa::Reg(i as u32)).to_owned())
                .collect(),
            stats,
            work,
            span,
            cost_graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Operand};
    use crate::program::ProgramBuilder;

    fn const_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let r = b.reg("r");
        b.block(
            "main",
            vec![
                Instr::Move {
                    dst: r,
                    src: Operand::Int(n),
                },
                Instr::Halt,
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn run_constant_program() {
        let p = const_program(99);
        let mut m = Machine::new(&p, MachineConfig::default());
        let out = m.run().unwrap();
        assert_eq!(out.read_reg("r"), Some(99));
        assert_eq!(out.stats.instructions, 2);
        assert_eq!(out.work, 2);
        assert_eq!(out.span, 2);
    }

    #[test]
    fn set_reg_unknown_name() {
        let p = const_program(0);
        let mut m = Machine::new(&p, MachineConfig::default());
        assert!(matches!(
            m.set_reg("nope", 1),
            Err(MachineError::UnknownName)
        ));
    }

    #[test]
    fn step_limit_enforced() {
        // An infinite loop.
        let mut b = ProgramBuilder::new();
        let l = b.label("spin");
        b.block(
            "spin",
            vec![Instr::Jump {
                target: Operand::Label(l),
            }],
        );
        let p = b.build().unwrap();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                step_limit: 1000,
                ..MachineConfig::default()
            },
        );
        assert!(matches!(
            m.run(),
            Err(MachineError::StepLimitExceeded { limit: 1000 })
        ));
    }

    #[test]
    fn outcome_parallelism_is_work_over_span() {
        let p = const_program(0);
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert!((out.parallelism() - 1.0).abs() < 1e-9);
    }

    fn pipeline_src() -> &'static str {
        r#"
main: [.]
    c := chmake 2
    detach producer
    s := 0
    k := 0
    jump consume
consume: [.]
    t := k < 5
    if-jump t, do_pop
    halt
do_pop: [.]
    v := chpop c
    s := s + v
    k := k + 1
    jump consume
producer: [.]
    i := 0
    jump produce
produce: [.]
    t2 := i < 5
    if-jump t2, do_push
    chclose c
    halt
do_push: [.]
    chpush c, i
    i := i + 1
    jump produce
"#
    }

    /// A producer-consumer pipeline over a capacity-2 channel: the
    /// detached producer pushes 0..5 and retires; the main task pops
    /// and sums. Both blocking directions are exercised (the channel
    /// fills while the consumer runs behind, and empties while the
    /// producer is parked), on every tier and under every policy.
    #[test]
    fn channel_pipeline_with_detached_producer() {
        let p = crate::asm::parse_program(pipeline_src()).unwrap();
        for tier in ExecTier::ALL {
            for policy in [
                SchedulePolicy::ParentFirst,
                SchedulePolicy::ChildFirst,
                SchedulePolicy::RoundRobin { quantum: 3 },
                SchedulePolicy::Random {
                    seed: 7,
                    quantum: 2,
                },
            ] {
                let mut m = Machine::new(
                    &p,
                    MachineConfig::default()
                        .with_policy(policy)
                        .with_exec_tier(tier),
                );
                let out = m.run().unwrap();
                assert_eq!(out.read_reg("s"), Some(10), "tier {tier} policy {policy:?}");
                assert_eq!(out.stats.detaches, 1);
                assert_eq!(out.stats.chan_pushes, 5);
                assert_eq!(out.stats.chan_pops, 5);
                assert_eq!(out.stats.detached_live_at_halt, 0, "pipeline quiesced");
            }
        }
    }

    /// Popping past a closed, drained channel faults deterministically.
    #[test]
    fn pop_after_close_drains_then_faults() {
        let src = r#"
main: [.]
    c := chmake 4
    chpush c, 1
    chpush c, 2
    chclose c
    a := chpop c
    b := chpop c
    x := chpop c
    halt
"#;
        let p = crate::asm::parse_program(src).unwrap();
        for tier in ExecTier::ALL {
            let mut m = Machine::new(&p, MachineConfig::default().with_exec_tier(tier));
            assert_eq!(m.run().unwrap_err(), MachineError::ChannelClosed, "{tier}");
        }
    }

    /// A pop with no partner parks the only task: deadlock, not a hang.
    #[test]
    fn channel_deadlock_detected() {
        let src = "main: [.]\n    c := chmake 1\n    v := chpop c\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        assert_eq!(m.run().unwrap_err(), MachineError::Deadlock);
    }

    /// Push on a closed channel faults; capacity must be positive.
    #[test]
    fn channel_misuse_faults() {
        let src = "main: [.]\n    c := chmake 1\n    chclose c\n    chpush c, 9\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        assert_eq!(
            Machine::new(&p, MachineConfig::default())
                .run()
                .unwrap_err(),
            MachineError::ChannelClosed
        );
        let src = "main: [.]\n    c := chmake 0\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        assert_eq!(
            Machine::new(&p, MachineConfig::default())
                .run()
                .unwrap_err(),
            MachineError::BadChannelCapacity { cap: 0 }
        );
    }
}
