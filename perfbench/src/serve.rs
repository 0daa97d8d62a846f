//! The serve phase: an in-process `tpal-serve` with its default config,
//! driven open-loop over `nproc` keep-alive connections.
//!
//! Requests follow a fixed schedule at a fixed absolute rate; each is
//! timed from the moment it was due, so a stall is charged to every
//! request it delays, and the generator's own lateness is reported.
//! The mix: decode-cache hits on a small working set of `.tpl`
//! programs, misses on freshly salted programs (validate + decode +
//! compile), and `GET /replay/<token>` of working-set runs.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tpal_ir::lower::{lower, Mode};
use tpal_ir::parse::parse_ir;
use tpal_serve::http::Client;
use tpal_serve::proto::parse_run_request;
use tpal_serve::{Engine, ServeConfig, Server};
use tpal_sim::SplitMix64;
use tpal_trace::json::{escape, parse, Json};

use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::tally::Tally;
use crate::{below, unit};

/// Programs in the hit working set.
pub const WORKING_SET: usize = 8;
/// Share of requests that are working-set hits; misses and replays
/// split the rest evenly.
pub const HIT_SHARE: f64 = 0.8;
/// The latency limit on p99 that defines `serve_max_rps`.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Requests per block: a block's p99 then has ten samples beyond it.
pub const MIN_REQUESTS: usize = 1_000;
/// Blocks per round at the light and at the heavy rate (ladder rungs
/// get one).
pub const BLOCKS_PER_ROUND: usize = 2;
/// Each ladder rung offers this much more than the one below it.
pub const LADDER_STEP: f64 = 1.25;
/// Rungs above `heavy`, from 0.75 to 1.83 of the capacity. All of them
/// run, whatever they measure, so every run sends the same requests
/// (and adds as many misses to the decode cache).
pub const LADDER_RUNGS: usize = 5;
/// The `light` rate as a share of a shape's capacity: well below the
/// knee, where latency is the service time.
pub const LIGHT_SHARE: f64 = 0.25;
/// The `heavy` rate as a share of a shape's capacity: queueing shows in
/// the tail, and the server still keeps up.
pub const HEAVY_SHARE: f64 = 0.6;
/// Simulated cores per request (the simulated phase's configuration).
const CORES: usize = crate::sim::CORES;

/// The program shape a workload serves.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A `parfor` reduction (the threaded tier's loop templates apply).
    Loop,
    /// Binary fork-join recursion (`par` in a recursive function).
    Fork,
}

/// A workload's serve traffic.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Program shape.
    pub shape: Shape,
    /// The `n` every request sets.
    pub n: i64,
    /// The shape's capacity in requests per second: the median
    /// `serve.max_rps` of traced runs on a 2-vCPU virtual machine. It is
    /// fixed, never measured per run, so that every run offers the same
    /// rates.
    pub capacity: f64,
}

impl Plan {
    /// The light rate, requests per second.
    pub fn light(&self) -> f64 {
        LIGHT_SHARE * self.capacity
    }

    /// The heavy rate, requests per second.
    pub fn heavy(&self) -> f64 {
        HEAVY_SHARE * self.capacity
    }
}

/// The source text of the program salted with `salt` (the salt changes
/// the content hash, hence the cache entry, not the amount of work).
pub fn source(shape: Shape, salt: u64) -> String {
    match shape {
        Shape::Loop => format!(
            "fn main(n) {{\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) \
             {{ s = s + i * 3 + {salt}; }}\n    return s;\n}}\n"
        ),
        Shape::Fork => format!(
            "fn main(n) {{\n    r = fib(n);\n    return r + {salt};\n}}\n\
             fn fib(n) {{\n    if n < 2 {{ return n; }}\n    par {{\n        \
             a = fib(n - 1);\n        b = fib(n - 2);\n    }}\n    return a + b;\n}}\n"
        ),
    }
}

/// The value the program salted with `salt` returns for `n`.
pub fn expected(shape: Shape, n: i64, salt: u64) -> i64 {
    let salt = salt as i64;
    match shape {
        Shape::Loop => 3 * n * (n - 1) / 2 + salt * n,
        Shape::Fork => {
            let (mut a, mut b) = (0i64, 1i64);
            for _ in 0..n {
                (a, b) = (b, a + b);
            }
            a + salt
        }
    }
}

fn body(shape: Shape, n: i64, salt: u64) -> String {
    format!(
        "{{\"source\":\"{}\",\"ir\":true,\"cores\":{CORES},\"sets\":{{\"n\":{n}}}}}",
        escape(&source(shape, salt))
    )
}

/// A working-set program with its first response.
struct Entry {
    salt: u64,
    body: String,
    token: String,
    result: Json,
}

/// A running server, its connections and its warmed working set.
pub struct Serve {
    plan: Plan,
    // Dropped after the clients, so handler threads see them close.
    clients: Vec<Client>,
    server: Server,
    addr: SocketAddr,
    result_reg: String,
    set: Vec<Entry>,
    next_salt: u64,
}

/// One request of a schedule.
enum Kind {
    Hit(usize),
    Miss(u64),
    Replay(usize),
}

/// A status and body, or the socket error.
type Reply = std::io::Result<(u16, String)>;

/// A request's client-side record, in milliseconds from its due time.
struct Sample {
    index: usize,
    latency_ms: f64,
    lateness_ms: f64,
    reply: Reply,
}

/// One offered rate's blocks of requests. Blocks of different rates
/// are interleaved through the run, so that a passing disturbance of
/// the machine lands in a few blocks of each rate rather than in all
/// blocks of one.
pub struct RateRun {
    /// Offered requests per second.
    pub rate: f64,
    /// Latency from due time of every request; a failed request counts
    /// as infinitely late.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time of every request.
    pub lateness_ms: Vec<f64>,
    /// Each block's p99.
    pub block_p99: Vec<f64>,
    /// Blocks whose backlog grew.
    pub backlogged: usize,
}

impl RateRun {
    /// No blocks yet.
    pub fn new(rate: f64) -> RateRun {
        RateRun {
            rate,
            latency_ms: Vec::new(),
            lateness_ms: Vec::new(),
            block_p99: Vec::new(),
            backlogged: 0,
        }
    }

    /// The median latency.
    pub fn p50(&self) -> f64 {
        median(&self.latency_ms)
    }

    /// The p99 latency: the median of the blocks' p99s, each with ten
    /// samples beyond it. One stall of the machine spoils one block, not
    /// the run.
    pub fn p99(&self) -> f64 {
        median(&self.block_p99)
    }

    /// Whether the rate meets the `serve_max_rps` criteria: p99 within
    /// the limit, and the backlog grew in at most half of the blocks.
    pub fn passes(&self) -> bool {
        self.p99() <= P99_LIMIT_MS && 2 * self.backlogged <= self.block_p99.len()
    }

    fn add_block(&mut self, latency_ms: Vec<f64>, lateness_ms: Vec<f64>) {
        self.block_p99
            .push(percentile(&latency_ms, 99.0).unwrap_or(f64::NAN));
        self.backlogged += usize::from(backlog_grows(&lateness_ms, P99_LIMIT_MS));
        self.latency_ms.extend(latency_ms);
        self.lateness_ms.extend(lateness_ms);
    }
}

/// Whether the generator fell steadily further behind schedule: the
/// median lateness of the last quarter of requests exceeds that of the
/// first quarter by more than `limit_ms`. An open-loop generator on
/// blocking connections cannot outrun the server, so a growing backlog
/// shows up here rather than in the server's queue.
pub fn backlog_grows(lateness_ms: &[f64], limit_ms: f64) -> bool {
    let q = lateness_ms.len() / 4;
    if q == 0 {
        return false;
    }
    median(&lateness_ms[lateness_ms.len() - q..]) - median(&lateness_ms[..q]) > limit_ms
}

/// Ladder rungs as `(rate, p99_ms, passes)`, ascending. The highest
/// rate meeting the p99 limit with no growing backlog (a stall that
/// fails a lower rung does not cap it), refined towards the rung above
/// by interpolating log p99 against log rate to where it reaches the
/// limit: a rung-quantised figure would jump a whole step between runs.
/// If no rung passes, the lowest rate scaled by limit / p99.
pub fn max_rps(rungs: &[(f64, f64, bool)], limit_ms: f64) -> f64 {
    let Some(pass) = rungs.iter().rposition(|r| r.2) else {
        let (rate, p99, _) = rungs[0];
        return rate * (limit_ms / p99).min(1.0);
    };
    let (r0, p0, _) = rungs[pass];
    let Some(&(r1, p1, _)) = rungs.get(pass + 1) else {
        return r0;
    };
    if p1 <= limit_ms || p1 <= p0 {
        return r0;
    }
    let frac = ((limit_ms / p0).ln() / (p1 / p0).ln()).clamp(0.0, 1.0);
    r0 * (r1 / r0).powf(frac)
}

/// Finds the entry function's result register of a `shape` program.
fn result_reg(shape: Shape) -> String {
    let ir = parse_ir(&source(shape, 0)).expect("benchmark programs parse");
    lower(&ir, Mode::Heartbeat)
        .expect("benchmark programs lower")
        .result_reg
}

/// Starts the server, connects the clients and submits the working set
/// once (each a miss). Spans: `serve.start`, `serve.warm`.
pub fn setup(
    plan: Plan,
    clients: usize,
    rng: &mut SplitMix64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Serve {
    let server = tr.time("serve.start", 0, || {
        Server::start(ServeConfig::default()).expect("bind a loopback port")
    });
    let addr = server.addr();
    let clients = (0..clients)
        .map(|_| Client::connect(addr).expect("connect to the in-process server"))
        .collect();
    let base = rng.next_u64() % 1_000_000 * 1_000;
    let mut s = Serve {
        plan,
        clients,
        server,
        addr,
        result_reg: result_reg(plan.shape),
        set: Vec::new(),
        next_salt: base + WORKING_SET as u64,
    };
    for w in 0..WORKING_SET {
        let salt = base + w as u64;
        let b = body(plan.shape, plan.n, salt);
        let reply = tr.time("serve.warm", w as u64, || {
            s.clients[0].request("POST", "/run", &b)
        });
        let doc = s.check_run(reply, salt, "miss", tally);
        let (token, result) = match doc {
            Some(d) => (
                d.get("replay")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                d.get("result").cloned().unwrap_or(Json::Null),
            ),
            None => (String::new(), Json::Null),
        };
        s.set.push(Entry {
            salt,
            body: b,
            token,
            result,
        });
    }
    s
}

impl Serve {
    /// Validates a `POST /run` reply: 200, the expected cache outcome,
    /// and the program's return value in the result registers.
    fn check_run(&self, reply: Reply, salt: u64, cache: &str, tally: &mut Tally) -> Option<Json> {
        let op = "POST /run";
        let (status, text) = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.fail(op, &e.to_string());
                return None;
            }
        };
        if status != 200 {
            tally.fail(op, &format!("status {status}: {text}"));
            return None;
        }
        let Ok(doc) = parse(&text) else {
            tally.fail(op, "response is not JSON");
            return None;
        };
        let want = expected(self.plan.shape, self.plan.n, salt);
        let got = doc
            .get("result")
            .and_then(|r| r.get("registers"))
            .and_then(|r| r.get(&self.result_reg))
            .and_then(Json::as_num);
        if got != Some(want as f64) {
            tally.fail(op, &format!("result {got:?}, expected {want}"));
            return None;
        }
        if doc.get("cache").and_then(Json::as_str) != Some(cache) {
            tally.fail(op, &format!("expected a cache {cache}"));
            return None;
        }
        tally.ok();
        Some(doc)
    }

    fn check(&self, kind: &Kind, reply: Reply, tally: &mut Tally) {
        match *kind {
            Kind::Hit(w) => {
                self.check_run(reply, self.set[w].salt, "hit", tally);
            }
            Kind::Miss(salt) => {
                self.check_run(reply, salt, "miss", tally);
            }
            Kind::Replay(w) => match reply {
                Ok((200, text)) => {
                    let same = parse(&text)
                        .ok()
                        .is_some_and(|d| d.get("result") == Some(&self.set[w].result));
                    if same {
                        tally.ok();
                    } else {
                        tally.fail("GET /replay", "result differs from the original run");
                    }
                }
                Ok((status, text)) => {
                    tally.fail("GET /replay", &format!("status {status}: {text}"))
                }
                Err(e) => tally.fail("GET /replay", &e.to_string()),
            },
        }
    }

    /// Offers one block of [`MIN_REQUESTS`] requests at `run.rate` per
    /// second, the mix drawn from `rng`, and validates every reply once
    /// the schedule is done.
    pub fn block(
        &mut self,
        run: &mut RateRun,
        rng: &mut SplitMix64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) {
        let (rate, count) = (run.rate, MIN_REQUESTS);
        let kinds: Vec<Kind> = (0..count)
            .map(|_| {
                let u = unit(rng);
                if u < HIT_SHARE {
                    Kind::Hit(below(rng, WORKING_SET))
                } else if u < (1.0 + HIT_SHARE) / 2.0 {
                    self.next_salt += 1;
                    Kind::Miss(self.next_salt)
                } else {
                    Kind::Replay(below(rng, WORKING_SET))
                }
            })
            .collect();
        let requests: Vec<(&str, String, String)> = kinds
            .iter()
            .map(|k| match *k {
                Kind::Hit(w) => ("POST", "/run".to_owned(), self.set[w].body.clone()),
                Kind::Miss(salt) => (
                    "POST",
                    "/run".to_owned(),
                    body(self.plan.shape, self.plan.n, salt),
                ),
                Kind::Replay(w) => (
                    "GET",
                    format!("/replay/{}", self.set[w].token),
                    String::new(),
                ),
            })
            .collect();
        let phase = tr.begin("bench.serve_block", 0);
        let epoch = tr.epoch();
        let on = tr.on();
        let addr = self.addr;
        let nclients = self.clients.len();
        let t0 = Instant::now() + Duration::from_millis(20);
        let interval = Duration::from_secs_f64(1.0 / rate);
        let requests = &requests;
        let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut tr = Tracer::new(on, epoch);
                        let mut out = Vec::new();
                        for (i, (method, path, body)) in
                            requests.iter().enumerate().skip(c).step_by(nclients)
                        {
                            let due = t0 + interval * i as u32;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let sent = Instant::now();
                            let id = tr.begin("serve.request", i as u64);
                            let reply = client.request(method, path, body);
                            if reply.is_err() {
                                // A broken connection fails this request only.
                                if let Ok(fresh) = Client::connect(addr) {
                                    *client = fresh;
                                }
                            }
                            tr.end(id);
                            let done = Instant::now();
                            let ms = |d: Duration| d.as_secs_f64() * 1e3;
                            out.push(Sample {
                                index: i,
                                latency_ms: ms(done - due),
                                lateness_ms: ms(sent.saturating_duration_since(due)),
                                reply,
                            });
                        }
                        (out, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut samples = Vec::with_capacity(count);
        for (out, ctr) in per_client {
            tr.absorb(ctr, Some(phase));
            samples.extend(out);
        }
        tr.end(phase);
        samples.sort_unstable_by_key(|s| s.index);
        let (mut latency, mut lateness) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for (s, kind) in samples.into_iter().zip(&kinds) {
            lateness.push(s.lateness_ms);
            let before = tally.failed;
            self.check(kind, s.reply, tally);
            latency.push(if tally.failed == before {
                s.latency_ms
            } else {
                f64::INFINITY
            });
        }
        run.add_block(latency, lateness);
    }

    /// The server's decode-cache counters `(hits, misses, decodes)` and
    /// its shed count (from `GET /stats`).
    pub fn counters(&mut self) -> (u64, u64, u64, f64) {
        let cache = self.server.engine().cache();
        let (hits, misses, decodes) = (cache.hit_count(), cache.miss_count(), cache.decode_count());
        let shed = self.clients[0]
            .request("GET", "/stats", "")
            .ok()
            .and_then(|(_, text)| parse(&text).ok())
            .and_then(|d| d.get("shed").and_then(Json::as_num))
            .unwrap_or(f64::NAN);
        (hits, misses, decodes, shed)
    }
}

/// Microseconds per call of the layers a request crosses, measured
/// in-process on a private `Engine` with `reps` calls each.
pub struct Probes {
    /// `parse_run_request` on a working-set body.
    pub parse_us: f64,
    /// `ProgramCache::get_or_compile` of a cached program.
    pub lookup_us: f64,
    /// `ProgramCache::get_or_compile` of a fresh program.
    pub compile_us: f64,
    /// `Engine::execute` of a working-set run.
    pub exec_us: f64,
    /// `Engine::replay` of a working-set token.
    pub replay_us: f64,
}

/// Measures [`Probes`] for `plan`'s programs.
pub fn probes(plan: Plan, reps: usize, tr: &mut Tracer, tally: &mut Tally) -> Probes {
    let engine = Engine::new();
    let reg = result_reg(plan.shape);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let b = body(plan.shape, plan.n, 1);
    let (mut parse_us, mut lookup_us, mut compile_us, mut exec_us, mut replay_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let req = parse_run_request(&b).expect("benchmark bodies parse");
    let (entry, _) = engine.cache().get_or_compile(&req.src);
    let entry = entry.expect("benchmark programs compile");
    let token = req.spec.token(req.src.content_hash());
    let want = expected(plan.shape, plan.n, 1);
    let check = |tally: &mut Tally, op: &str, result: &str| {
        let got = parse(result).ok().and_then(|d| {
            d.get("registers")
                .and_then(|r| r.get(&reg))
                .and_then(Json::as_num)
        });
        tally.check(op, got.map_or(i64::MIN, |g| g as i64), want);
    };
    for i in 0..reps {
        let t = Instant::now();
        let r = tr.time("serve.parse", i as u64, || parse_run_request(&b));
        parse_us.push(us(t));
        drop(r);

        let t = Instant::now();
        let (_, hit) = tr.time("serve.lookup", i as u64, || {
            engine.cache().get_or_compile(&req.src)
        });
        lookup_us.push(us(t));
        if !hit {
            tally.fail("cache lookup", "a compiled program missed");
        }

        let fresh = parse_run_request(&body(plan.shape, plan.n, 1_000 + i as u64)).expect("parses");
        let t = Instant::now();
        let (compiled, hit) = tr.time("core.compile_tpl", i as u64, || {
            engine.cache().get_or_compile(&fresh.src)
        });
        compile_us.push(us(t));
        if hit || compiled.is_err() {
            tally.fail("cache compile", "a fresh program did not compile as a miss");
        }

        let t = Instant::now();
        let out = tr.time("serve.exec", i as u64, || {
            engine.execute(&entry, &req.spec, req.include)
        });
        exec_us.push(us(t));
        match out {
            Ok(out) => check(tally, "Engine::execute", &out.result),
            Err(e) => tally.fail("Engine::execute", &e.to_string()),
        }

        let t = Instant::now();
        let out = tr.time("serve.replay", i as u64, || engine.replay(&token));
        replay_us.push(us(t));
        match out {
            Ok((_, out)) => check(tally, "Engine::replay", &out.result),
            Err(e) => tally.fail("Engine::replay", &e.to_string()),
        }
    }
    Probes {
        parse_us: median(&parse_us),
        lookup_us: median(&lookup_us),
        compile_us: median(&compile_us),
        exec_us: median(&exec_us),
        replay_us: median(&replay_us),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_that_keeps_growing_is_a_backlog() {
        // Steady 0.1 ms jitter: no backlog.
        let flat: Vec<f64> = (0..400).map(|i| 0.1 + (i % 3) as f64 * 0.05).collect();
        assert!(!backlog_grows(&flat, 10.0));
        // Falling 0.1 ms further behind per request: 40 ms by the end.
        let growing: Vec<f64> = (0..400).map(|i| i as f64 * 0.1).collect();
        assert!(backlog_grows(&growing, 10.0));
        // One early stall that the generator recovers from is not.
        let mut stall = flat.clone();
        stall[5] = 50.0;
        assert!(!backlog_grows(&stall, 10.0));
        assert!(!backlog_grows(&[], 10.0));
    }

    #[test]
    fn a_block_counts_failures_as_late_and_flags_its_backlog() {
        let mut run = RateRun::new(1_000.0);
        let mut latency = vec![1.0; MIN_REQUESTS];
        // Eleven failed requests: more than 1% of the block misses any limit.
        latency[..11].fill(f64::INFINITY);
        run.add_block(latency, vec![0.1; MIN_REQUESTS]);
        assert_eq!(run.p99(), f64::INFINITY);
        assert!(!run.passes());
        // A block that falls steadily behind schedule is a backlog.
        let late: Vec<f64> = (0..MIN_REQUESTS).map(|i| i as f64 * 0.05).collect();
        run.add_block(vec![1.0; MIN_REQUESTS], late);
        run.add_block(vec![2.0; MIN_REQUESTS], vec![0.1; MIN_REQUESTS]);
        assert_eq!(run.backlogged, 1);
        assert_eq!(run.block_p99, vec![f64::INFINITY, 1.0, 2.0]);
        // The median block: one bad block does not fail the rate.
        assert_eq!(run.p99(), 2.0);
        assert!(run.passes());
        assert_eq!(run.p50(), 1.0);
    }

    #[test]
    fn max_rps_interpolates_between_the_bracketing_rungs() {
        let limit = 10.0;
        // 1000 passes at 5 ms; 2000 fails at 20 ms: log-log midpoint.
        let r = max_rps(
            &[
                (500.0, 2.0, true),
                (1000.0, 5.0, true),
                (2000.0, 20.0, false),
            ],
            limit,
        );
        assert!((r - 1000.0 * 2f64.sqrt()).abs() < 1e-6, "{r}");
        // Every rung passes: the top of the ladder.
        assert_eq!(
            max_rps(&[(500.0, 2.0, true), (800.0, 3.0, true)], limit),
            800.0
        );
        // Failing on backlog alone: the last passing rung.
        assert_eq!(
            max_rps(&[(500.0, 2.0, true), (800.0, 3.0, false)], limit),
            500.0
        );
        // A stall failed a lower rung; a higher one still passed.
        let r = max_rps(
            &[
                (500.0, 30.0, false),
                (1000.0, 5.0, true),
                (2000.0, 20.0, false),
            ],
            limit,
        );
        assert!((r - 1000.0 * 2f64.sqrt()).abs() < 1e-6, "{r}");
        // Nothing passes: scaled below the ladder, never zero.
        assert_eq!(max_rps(&[(500.0, 20.0, false)], limit), 250.0);
    }

    #[test]
    fn salted_programs_return_their_expected_values() {
        assert_eq!(expected(Shape::Loop, 4, 2), 3 * 6 + 8);
        assert_eq!(expected(Shape::Fork, 10, 7), 55 + 7);
        assert!(source(Shape::Loop, 5).contains("+ 5;"));
        assert_ne!(source(Shape::Fork, 1), source(Shape::Fork, 2));
    }
}
