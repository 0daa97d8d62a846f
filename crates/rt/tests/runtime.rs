//! Integration tests of the native heartbeat runtime: correctness under
//! every heartbeat source, promotion accounting, and the serial-by-default
//! guarantee.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tpal_rt::{HeartbeatSource, RtConfig, Runtime};

fn rt(workers: usize, source: HeartbeatSource, us: u64) -> Runtime {
    Runtime::new(
        RtConfig::default()
            .workers(workers)
            .source(source)
            .heartbeat(Duration::from_micros(us)),
    )
}

#[test]
fn reduce_sums_correctly_all_sources() {
    for source in [
        HeartbeatSource::Disabled,
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ] {
        let rt = rt(2, source, 50);
        let n = 2_000_000usize;
        let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, acc| acc + i as u64, |a, b| a + b));
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "{source:?}");
    }
}

#[test]
fn disabled_source_never_promotes() {
    let rt = rt(2, HeartbeatSource::Disabled, 50);
    let total = rt.run(|ctx| ctx.reduce(0..500_000, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, 499_999u64 * 500_000 / 2);
    let stats = rt.stats();
    assert_eq!(stats.tasks_created, 0);
    assert_eq!(stats.promotions, 0);
}

#[test]
fn local_timer_promotes_long_loops() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 100);
    let n = 4_000_000usize;
    let total =
        rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + black_box(i as u64), |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let stats = rt.stats();
    assert!(
        stats.tasks_created > 0,
        "a multi-ms loop at ♥=100µs must promote: {stats:?}"
    );
    // Amortisation: at most one task per serviced heartbeat.
    assert!(stats.tasks_created <= stats.heartbeats_serviced.max(1));
}

#[test]
fn parallel_for_writes_all_slots() {
    let rt = rt(3, HeartbeatSource::LocalTimer, 80);
    let n = 300_000usize;
    let out: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    rt.run(|ctx| {
        ctx.parallel_for(0..n, |_, i| {
            out[i].fetch_add(i + 1, Ordering::Relaxed);
        })
    });
    for (i, c) in out.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), i + 1, "slot {i}");
    }
}

fn fib(ctx: &tpal_rt::WorkerCtx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = ctx.join2(|ctx| fib(ctx, n - 1), |ctx| fib(ctx, n - 2));
    a + b
}

#[test]
fn join2_fib_all_sources() {
    for source in [
        HeartbeatSource::Disabled,
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ] {
        let rt = rt(2, source, 60);
        let f = rt.run(|ctx| fib(ctx, 27));
        assert_eq!(f, 196_418, "{source:?}");
    }
}

#[test]
fn join2_serial_by_default() {
    // With heartbeats disabled, join2 must create zero tasks — the
    // "near zero-cost abstraction" property.
    let rt = rt(2, HeartbeatSource::Disabled, 60);
    let f = rt.run(|ctx| fib(ctx, 24));
    assert_eq!(f, 46_368);
    assert_eq!(rt.stats().tasks_created, 0);
}

#[test]
fn join2_promotes_under_heartbeat() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 60);
    let f = rt.run(|ctx| fib(ctx, 29));
    assert_eq!(f, 514_229);
    let stats = rt.stats();
    assert!(stats.tasks_created > 0, "{stats:?}");
    assert!(stats.promotions == stats.tasks_created);
}

#[test]
fn nested_loops_and_forks_compose() {
    // join2 over two reduces, nested under another join2.
    let rt = rt(2, HeartbeatSource::LocalTimer, 60);
    let n = 200_000usize;
    let result = rt.run(|ctx| {
        let ((a, b), c) = ctx.join2(
            |ctx| {
                ctx.join2(
                    |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + i as u64, |a, b| a + b),
                    |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + 2 * i as u64, |a, b| a + b),
                )
            },
            |ctx| ctx.reduce(0..n, 0u64, |_, i, s| s + 3 * i as u64, |a, b| a + b),
        );
        a + b + c
    });
    let base = (n as u64 - 1) * n as u64 / 2;
    assert_eq!(result, base * 6);
}

#[test]
fn run_returns_values_and_can_rerun() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 100);
    let a = rt.run(|_| 41);
    let b = rt.run(|_| a + 1);
    assert_eq!(b, 42);
}

#[test]
fn ping_thread_delivers_heartbeats() {
    let rt = rt(2, HeartbeatSource::PingThread, 100);
    // Busy work long enough (milliseconds) to see several beats.
    let x = rt.run(|ctx| {
        ctx.reduce(
            0..30_000_000usize,
            0u64,
            |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
            |a, b| a ^ b,
        )
    });
    std::hint::black_box(x);
    let stats = rt.stats();
    assert!(
        stats.heartbeats_delivered > 0,
        "ping thread should have delivered: {stats:?}"
    );
}

#[test]
fn stats_reset() {
    let rt = rt(2, HeartbeatSource::LocalTimer, 50);
    rt.run(|ctx| {
        ctx.reduce(
            0..1_000_000usize,
            0u64,
            |_, i, a| a + i as u64,
            |a, b| a + b,
        )
    });
    rt.reset_stats();
    let s = rt.stats();
    assert_eq!(s.tasks_created, 0);
    assert_eq!(s.heartbeats_delivered, 0);
}

#[test]
fn stats_reset_isolates_trials() {
    // Regression: a reset must clear per-worker delivery cells, not only
    // the shared counters. Run a workload, reset, run another — the
    // post-reset snapshot must reflect the second run alone. A reset that
    // skips `HeartbeatCell::delivered` fails here: the first run's
    // deliveries leak into the second snapshot, pushing `delivered` far
    // past what one trial plus the idle window in between can produce.
    let work = |rt: &Runtime, n: usize| {
        std::hint::black_box(rt.run(move |ctx| {
            ctx.reduce(
                0..n,
                0u64,
                |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                |a, b| a ^ b,
            )
        }));
    };
    let rt = rt(2, HeartbeatSource::LocalTimer, 50);
    // Long first trial, short second: delivery counts scale with trial
    // length, so a snapshot contaminated by the first trial cannot stay
    // below the first trial's own count.
    work(&rt, 20_000_000);
    let first = rt.stats();
    assert!(first.heartbeats_delivered > 0, "{first:?}");

    rt.reset_stats();
    assert_eq!(
        rt.stats().heartbeats_delivered,
        0,
        "reset must zero delivery"
    );
    work(&rt, 1_000_000);
    let second = rt.stats();
    assert!(second.heartbeats_delivered > 0, "{second:?}");
    // A leaked first trial would make `second >= first`; a clean reset
    // leaves roughly a twentieth (plus a few idle-window expiries).
    assert!(
        second.heartbeats_delivered < first.heartbeats_delivered,
        "delivered {} after reset vs {} in the 20x longer first trial: first trial leaked",
        second.heartbeats_delivered,
        first.heartbeats_delivered
    );
}

#[test]
fn trace_records_scheduling_events() {
    // Tracing on: a promoting workload must leave delivered/serviced
    // events consistent with the counter snapshot, and tracing must
    // default to off (take_trace -> None).
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .source(HeartbeatSource::LocalTimer)
            .heartbeat(Duration::from_micros(50))
            .trace(true),
    );
    let n = 3_000_000usize;
    let total =
        rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + black_box(i as u64), |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let stats = rt.stats();
    let trace = rt.take_trace().expect("tracing was enabled");
    assert_eq!(trace.tracks.len(), 2);
    let report = tpal_trace::MetricsReport::from_trace(&trace);
    assert_eq!(report.heartbeats_serviced, stats.heartbeats_serviced);
    assert_eq!(report.tasks_created, stats.tasks_created);
    assert_eq!(report.promotions, stats.promotions);
    // Delivery events cover at least the beats the workers consumed
    // (counter and event are recorded at the same poll for LocalTimer;
    // idle-window expiries can add more on the counter read later).
    assert!(report.heartbeats_delivered > 0);
    // Chrome rendering of a runtime trace must validate like a sim one.
    let json = tpal_trace::chrome::chrome_json(&trace);
    tpal_trace::chrome::validate(&json).expect("runtime trace renders valid Chrome JSON");

    let untraced = crate::rt(2, HeartbeatSource::LocalTimer, 50);
    assert!(untraced.take_trace().is_none(), "tracing defaults to off");
}

#[test]
fn per_worker_stats_sum_to_aggregate() {
    // The sharded counters must be a partition, not a resample: the
    // field-wise sum of `per_worker_stats` equals `stats` exactly.
    let rt = rt(3, HeartbeatSource::LocalTimer, 50);
    let n = 4_000_000usize;
    let total =
        rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + black_box(i as u64), |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);

    let agg = rt.stats();
    let per = rt.per_worker_stats();
    assert_eq!(per.len(), 3);
    assert_eq!(
        per.iter().map(|s| s.promotions).sum::<u64>(),
        agg.promotions
    );
    assert_eq!(
        per.iter().map(|s| s.tasks_created).sum::<u64>(),
        agg.tasks_created
    );
    assert_eq!(per.iter().map(|s| s.steals).sum::<u64>(), agg.steals);
    assert_eq!(
        per.iter().map(|s| s.heartbeats_serviced).sum::<u64>(),
        agg.heartbeats_serviced
    );
    assert!(agg.tasks_created > 0, "workload should promote: {agg:?}");

    // Reset clears every shard.
    rt.reset_stats();
    for s in rt.per_worker_stats() {
        assert_eq!(s.tasks_created, 0);
        assert_eq!(s.steals, 0);
    }
}

#[test]
fn report_per_worker_totals_match_counters() {
    // MetricsReport's per-core steal/promotion tallies (derived from the
    // trace) must sum to the counter-shard totals for traced events.
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .source(HeartbeatSource::LocalTimer)
            .heartbeat(Duration::from_micros(50))
            .trace(true),
    );
    let n = 4_000_000usize;
    let total =
        rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + black_box(i as u64), |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let stats = rt.stats();
    let trace = rt.take_trace().expect("tracing enabled");
    let report = tpal_trace::MetricsReport::from_trace(&trace);
    assert_eq!(report.per_core_promotions.len(), 2);
    assert_eq!(
        report.per_core_promotions.iter().sum::<u64>(),
        stats.promotions
    );
    assert_eq!(report.per_core_steals.iter().sum::<u64>(), stats.steals);
}

#[test]
fn concurrent_external_submitters() {
    // Many external threads calling `run` concurrently hammer the
    // lock-free injector, the result latch, and the eventcount wake
    // protocol at once. Every submission must complete with the right
    // answer, none lost, none doubled.
    let rt = std::sync::Arc::new(crate::rt(4, HeartbeatSource::LocalTimer, 50));
    let submitters = 6usize;
    let rounds = 40usize;
    let handles: Vec<_> = (0..submitters)
        .map(|t| {
            let rt = std::sync::Arc::clone(&rt);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let n = 10_000 + t * 1_000 + r;
                    let total = rt.run(move |ctx| {
                        ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b)
                    });
                    assert_eq!(total, (n as u64 - 1) * n as u64 / 2, "t{t} r{r}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn many_workers_oversubscribed() {
    // More workers than cores (this machine has one): correctness must
    // not depend on real parallelism.
    let rt = rt(8, HeartbeatSource::LocalTimer, 50);
    let n = 1_000_000usize;
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
}

#[test]
fn poll_subsample_paces_beat_detection() {
    // ISSUE 10 satellite: the fork-point clock-poll subsample is a knob
    // (`RtConfig::poll_subsample`), not a hardcoded 31. Under a fixed
    // stride, a LocalTimer loop checks the deadline only every
    // `subsample + 1`th poll — so an absurd subsample must stretch beat
    // detection past the run and starve servicing, while the default
    // detects beats promptly. Correctness must hold either way.
    let run = |sub: u32| {
        let rt = Runtime::new(
            RtConfig::default()
                .workers(1)
                .source(HeartbeatSource::LocalTimer)
                .heartbeat(Duration::from_micros(100))
                .poll_adaptive(false)
                .poll_subsample(sub),
        );
        let n = 8_000_000usize;
        let total = rt.run(|ctx| {
            ctx.reduce(
                0..n,
                0u64,
                |_, i, a| a ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                |a, b| a ^ b,
            )
        });
        std::hint::black_box(total);
        rt.stats().heartbeats_serviced
    };
    let responsive = run(31);
    let starved = run(1 << 30);
    assert!(
        responsive > 0,
        "a multi-ms loop at ♥=100µs with the default subsample must service beats"
    );
    assert!(
        starved * 4 < responsive,
        "subsample 2^30 must starve detection: serviced {starved} vs {responsive}"
    );
}

#[test]
fn channel_park_survives_heartbeat_signals() {
    // ISSUE 10 satellite (EINTR audit): a worker parked on an empty
    // channel keeps taking per-worker timer signals every ♥ = 100µs.
    // Each delivery interrupts the park (futex EINTR); the blocking
    // protocol must re-check and re-park, not spin, wedge, or miss the
    // push. Under a broken handler installation the raw signal would
    // kill the process outright.
    let rt = std::sync::Arc::new(rt(1, HeartbeatSource::TimerSignal, 100));
    let ch = std::sync::Arc::new(tpal_rt::Channel::with_capacity(1));
    let pusher = {
        let ch = std::sync::Arc::clone(&ch);
        std::thread::spawn(move || {
            // Long enough for a few hundred signal deliveries to land on
            // the parked worker before the value shows up.
            std::thread::sleep(Duration::from_millis(30));
            ch.push(42).expect("channel open");
        })
    };
    let got = {
        let ch = std::sync::Arc::clone(&ch);
        rt.run(move |_| ch.pop())
    };
    pusher.join().unwrap();
    assert_eq!(got, Some(42));
}

#[test]
fn ping_thread_runtime_drops_quickly_with_large_heartbeat() {
    // ISSUE 8 regression: `ping_main` used to sleep a whole ♥ between
    // shutdown checks, so dropping a PingThread runtime with a large ♥
    // blocked for up to one full heartbeat period. With ♥ = 1s the drop
    // must still return in milliseconds (bounded by the ping thread's
    // shutdown-poll slice, not by ♥).
    let rt = rt(2, HeartbeatSource::PingThread, 1_000_000); // ♥ = 1s
    let n = 10_000usize;
    let total = rt.run(|ctx| ctx.reduce(0..n, 0u64, |_, i, a| a + i as u64, |a, b| a + b));
    assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    let t = std::time::Instant::now();
    drop(rt);
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "PingThread runtime drop took {elapsed:?}; shutdown latency must \
         be bounded independent of ♥"
    );
}
