//! Open-loop load generation against `tpal-serve`: sustained runs/sec
//! and latency quantiles of the simulation service under offered load.
//!
//! The bench starts a server in-process, measures single-request
//! latency on a warm cache to calibrate the server's closed-loop
//! capacity, then offers three open-loop arrival rates — 25%, 50%, and
//! 90% of that capacity — from a pool of keep-alive clients firing on a
//! precomputed schedule. Latency is measured from each request's
//! *scheduled* arrival time (not its send time), so queueing delay
//! under overload is charged to the server, the defining property of
//! an open-loop harness. Shed requests (`429` from the bounded
//! admission queue) are counted separately and excluded from the
//! latency quantiles.
//!
//! A separate pass measures the decode cache's effect: first
//! submissions of distinct programs (misses, each paying
//! validate + decode) versus resubmissions (hits,
//! straight to execution).
//!
//! Writes `BENCH_serve_throughput.json` at the repo root (atomically:
//! temp file, then rename).
//!
//! With `TPAL_BENCH_SMOKE=1` the bench runs a miss/hit/replay
//! correctness gate and a small fixed-rate burst, asserting every
//! admitted request completes and replay output is bit-identical —
//! without touching the JSON record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpal_bench::write_atomic;
use tpal_serve::http::Client;
use tpal_serve::server::{ServeConfig, Server};
use tpal_trace::json::{escape, parse, Json};

/// The benchmark workload: a parallel reduction sized so one run costs
/// roughly a millisecond — large enough to exercise the scheduler,
/// small enough for thousands of runs per bench.
const SUM_N: u64 = 4_000;
const SIM_CORES: u64 = 2;

/// Open-loop client threads (each with its own keep-alive connection).
const CLIENTS: usize = 16;

/// Requests per offered-load point.
const RUNS_PER_LOAD: usize = 300;

/// Offered loads as fractions of the calibrated capacity.
const LOAD_FRACTIONS: [f64; 3] = [0.25, 0.5, 0.9];

/// Distinct programs for the miss-vs-hit pass.
const MISS_PROGRAMS: usize = 20;

fn sum_body(k: u64) -> String {
    // `k` salts a constant, making each program's content hash (and so
    // its decode-cache entry) distinct while keeping the work identical.
    let src = format!(
        "fn main(n) {{\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) \
         {{ s = s + i + {k}; }}\n    return s;\n}}\n"
    );
    format!(
        "{{\"source\":\"{}\",\"ir\":true,\"cores\":{SIM_CORES},\"sets\":{{\"n\":{SUM_N}}}}}",
        escape(&src)
    )
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One open-loop point: offer `rate` requests/sec for `total` requests
/// across [`CLIENTS`] threads, returning (achieved runs/sec, shed
/// count, sorted latencies of completed runs).
fn open_loop(addr: std::net::SocketAddr, rate: f64, total: usize) -> (f64, u64, Vec<Duration>) {
    let interarrival = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(50);
    let shed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let shed = Arc::clone(&shed);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let body = sum_body(0);
                let mut latencies = Vec::new();
                // Client c fires requests c, c+CLIENTS, c+2·CLIENTS, …
                // at their scheduled times; a late previous reply just
                // delays the send, and the schedule-anchored clock
                // charges that delay to the measurement.
                let mut i = c;
                while i < total {
                    let scheduled = start + interarrival.mul_f64(i as f64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (status, _) = client.request("POST", "/run", &body).expect("request");
                    match status {
                        200 => latencies.push(scheduled.elapsed()),
                        429 => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected status {other}"),
                    }
                    i += CLIENTS;
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    latencies.sort();
    let achieved = latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    (achieved, shed.load(Ordering::Relaxed), latencies)
}

/// Measures the decode cache: median first-submission (miss) latency vs
/// median resubmission (hit) latency over [`MISS_PROGRAMS`] distinct
/// programs.
fn miss_vs_hit(addr: std::net::SocketAddr) -> (Duration, Duration) {
    let mut client = Client::connect(addr).expect("connect");
    let mut misses = Vec::new();
    let mut hits = Vec::new();
    for k in 0..MISS_PROGRAMS as u64 {
        let body = sum_body(1_000 + k);
        for (bucket, expect) in [
            (&mut misses, "\"cache\":\"miss\""),
            (&mut hits, "\"cache\":\"hit\""),
        ] {
            let t = Instant::now();
            let (status, resp) = client.request("POST", "/run", &body).expect("request");
            let elapsed = t.elapsed();
            assert_eq!(status, 200, "{resp}");
            assert!(resp.contains(expect), "{resp}");
            bucket.push(elapsed);
        }
    }
    misses.sort();
    hits.sort();
    (percentile(&misses, 0.5), percentile(&hits, 0.5))
}

fn server() -> Server {
    Server::start(ServeConfig {
        queue_cap: 64,
        executors: std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2),
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// CI-sized canary: miss → hit → bit-identical replay, then a short
/// fixed-rate burst where every request must be admitted and complete.
fn smoke() {
    let server = server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let body = sum_body(0);
    let (status, first) = client.request("POST", "/run", &body).expect("request");
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let (status, second) = client.request("POST", "/run", &body).expect("request");
    assert_eq!(status, 200);
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    let first_doc = parse(&first).expect("response JSON");
    let token = first_doc
        .get("replay")
        .and_then(Json::as_str)
        .expect("token")
        .to_owned();
    let (status, replayed) = client
        .request("GET", &format!("/replay/{token}"), "")
        .expect("replay");
    assert_eq!(status, 200, "{replayed}");
    let replayed_doc = parse(&replayed).expect("response JSON");
    assert_eq!(
        first_doc.get("result"),
        replayed_doc.get("result"),
        "replay must be bit-identical: {first} vs {replayed}"
    );

    let (achieved, shed, latencies) = open_loop(addr, 50.0, 40);
    assert_eq!(shed, 0, "smoke burst must stay under capacity");
    assert_eq!(latencies.len(), 40, "every admitted request completes");
    println!(
        "serve_throughput smoke: miss->hit->replay identical; \
         burst {achieved:.0} runs/s, p99 {:.2} ms",
        percentile(&latencies, 0.99).as_secs_f64() * 1e3
    );
    server.shutdown();
    server.join();
}

fn main() {
    if std::env::var_os("TPAL_BENCH_SMOKE").is_some() {
        smoke();
        return;
    }

    let server = server();
    let addr = server.addr();

    let (miss_med, hit_med) = miss_vs_hit(addr);
    println!(
        "serve_throughput cache: median miss {:.3} ms, median hit {:.3} ms ({:.2}x)",
        miss_med.as_secs_f64() * 1e3,
        hit_med.as_secs_f64() * 1e3,
        miss_med.as_secs_f64() / hit_med.as_secs_f64().max(1e-9)
    );

    // Calibrate capacity: closed-loop latency on a warm cache, scaled
    // by the executor count (each executor runs one sim at a time).
    let mut client = Client::connect(addr).expect("connect");
    let body = sum_body(0);
    client.request("POST", "/run", &body).expect("warm-up");
    let mut base = Duration::MAX;
    for _ in 0..20 {
        let t = Instant::now();
        let (status, _) = client.request("POST", "/run", &body).expect("request");
        assert_eq!(status, 200);
        base = base.min(t.elapsed());
    }
    let executors = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);
    let capacity = executors as f64 / base.as_secs_f64().max(1e-9);
    println!(
        "serve_throughput: base latency {:.3} ms, {executors} executors, \
         calibrated capacity {capacity:.0} runs/s",
        base.as_secs_f64() * 1e3
    );

    let mut rows = Vec::new();
    for fraction in LOAD_FRACTIONS {
        let offered = capacity * fraction;
        let (achieved, shed, latencies) = open_loop(addr, offered, RUNS_PER_LOAD);
        let p50 = percentile(&latencies, 0.5);
        let p99 = percentile(&latencies, 0.99);
        println!(
            "serve_throughput @{:.0}% load: offered {offered:.0} runs/s, achieved \
             {achieved:.0} runs/s, p50 {:.2} ms, p99 {:.2} ms, {shed} shed",
            fraction * 100.0,
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3
        );
        rows.push(format!(
            "    {{\n      \"load_fraction\": {fraction},\n      \
             \"offered_rps\": {offered:.1},\n      \"achieved_rps\": {achieved:.1},\n      \
             \"completed\": {},\n      \"shed\": {shed},\n      \
             \"p50_us\": {},\n      \"p99_us\": {}\n    }}",
            latencies.len(),
            p50.as_micros(),
            p99.as_micros()
        ));
    }

    server.shutdown();
    server.join();

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"config\": {{\n    \
         \"clients\": {CLIENTS},\n    \"executors\": {executors},\n    \
         \"program\": \"parfor-sum\",\n    \"queue_cap\": 64,\n    \
         \"runs_per_load\": {RUNS_PER_LOAD},\n    \"sim_cores\": {SIM_CORES},\n    \
         \"sum_n\": {SUM_N}\n  }},\n  \"cache\": {{\n    \
         \"hit_median_us\": {},\n    \"miss_median_us\": {},\n    \
         \"miss_over_hit\": {:.3},\n    \"programs\": {MISS_PROGRAMS}\n  }},\n  \
         \"calibration\": {{\n    \"base_latency_us\": {},\n    \
         \"capacity_rps\": {capacity:.1}\n  }},\n  \"rows\": [\n{}\n  ]\n}}\n",
        hit_med.as_micros(),
        miss_med.as_micros(),
        miss_med.as_secs_f64() / hit_med.as_secs_f64().max(1e-9),
        base.as_micros(),
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve_throughput.json"
    );
    write_atomic(path, &json);
    println!("serve_throughput: wrote {path}");
}
