//! `serve-mix`: an in-process `lmds-serve` daemon (2 workers, default
//! cache) driven by a closed loop of [`CLIENTS`] keep-alive clients.
//!
//! Each client owns one graph of [`PIECES`] `scale_instance` pieces, so
//! its PATCHes never meet another client's jobs, and replays a seeded
//! sequence of blocks. A block holds [`BLOCK_HITS`] repeated
//! `mds/algorithm1` reads answered from the cache, [`BLOCK_PATCHES`]
//! one-edge PATCHes each followed by a re-solve that reuses the
//! unchanged pieces, and [`BLOCK_COLD`] cold solves: a PUT of a freshly
//! generated graph, then `mds/algorithm1` and `mds/theorem44` in
//! `local-oracle` mode on it.

use crate::pipeline::{timed_solve, traced_algorithm1, wire_timings, PipelineCounts};
use crate::report::{median, metric, Metric, Tally};
use crate::trace::{RunTotals, Span, Tracer};
use crate::{derive_seed, Measured, Outcome, RunConfig, RADII};
use lmds_api::{Instance, SolveConfig, SolverRegistry};
use lmds_gen::rng::SmallRng;
use lmds_graph::dominating::is_dominating_set;
use lmds_graph::io::to_edge_list;
use lmds_graph::Graph;
use lmds_serve::http::{self, KeepAliveClient};
use lmds_serve::json::{self, Value};
use lmds_serve::proto;
use lmds_serve::server::{ServeConfig, Server, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// `scale_instance` pieces in each client's graph.
pub const PIECES: usize = 20;
/// Pieces in each cold graph.
pub const COLD_PIECES: usize = 2;
/// Target vertices of one piece.
pub const PIECE_N: usize = 2_500;
/// Cache reads per block.
pub const BLOCK_HITS: usize = 82;
/// PATCH + re-solve pairs per block.
pub const BLOCK_PATCHES: usize = 6;
/// Cold PUT + two solves per block.
pub const BLOCK_COLD: usize = 2;

/// Independent sessions per run, each with its own set-up and server;
/// the measured time is split evenly between them.
pub const SESSIONS: u32 = 4;
/// How long the server keeps a finished job for polling.
const JOB_RETENTION: Duration = Duration::from_secs(2);
/// Socket timeout of every client request.
const TIMEOUT: Duration = Duration::from_secs(60);

/// What a request was, as the response showed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Hit,
    Miss,
    Patch,
    Put,
}

impl Route {
    fn span_name(self) -> &'static str {
        match self {
            Route::Hit => "serve.hit",
            Route::Miss => "serve.miss",
            Route::Patch => "serve.patch",
            Route::Put => "serve.put",
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
struct Record {
    route: Route,
    start: Instant,
    end: Instant,
}

impl Record {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A graph of `pieces` disjoint `scale_instance` pieces, each seeded
/// from `rng`, with each piece's vertex range.
fn pieced_graph(rng: &mut SmallRng, pieces: usize) -> (Graph, Vec<(usize, usize)>) {
    let mut g = Graph::new(0);
    let mut ranges = Vec::with_capacity(pieces);
    for _ in 0..pieces {
        let piece = lmds_gen::scale_instance(PIECE_N, rng.next_u64());
        let lo = g.disjoint_union(&piece);
        ranges.push((lo, g.n()));
    }
    (g, ranges)
}

fn solve_body(graph: &str, solver: &str, config: &str) -> Vec<u8> {
    format!("{{\"graph\": \"{graph}\", \"solver\": \"{solver}\", \"config\": {config}}}")
        .into_bytes()
}

const ALG1_CONFIG: &str = "{\"radii\": [2, 3]}";
const T44_CONFIG: &str = "{\"mode\": \"local-oracle\"}";

/// One client's connection, records and checks.
struct Client {
    addr: SocketAddr,
    conn: Option<KeepAliveClient>,
    tally: Tally,
    records: Vec<Record>,
    rejected: u64,
    largest: Vec<u8>,
    /// The last cache-read body that was parsed and checked; a read
    /// returning the same bytes for the same revision needs no second
    /// parse.
    checked_read: Vec<u8>,
}

impl Client {
    /// Sends one request (reconnecting when the server closed the last
    /// connection) and records it; returns the body of a 2xx response.
    /// A solve is recorded as a miss until [`Client::solve`] reads its
    /// `cached` flag.
    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Option<Vec<u8>> {
        let t0 = Instant::now();
        if !self.conn.as_ref().is_some_and(KeepAliveClient::is_open) {
            self.conn = KeepAliveClient::connect(self.addr, TIMEOUT).ok();
        }
        let resp = match self.conn.as_mut().map(|c| c.send(method, path, body)) {
            Some(Ok(resp)) => resp,
            other => {
                self.conn = None;
                self.tally.fail(format!("{method} {path}: {:?}", other.map(|r| r.err())));
                return None;
            }
        };
        let t1 = Instant::now();
        if matches!(resp.status, 409 | 429 | 503) {
            self.rejected += 1;
        }
        let ok = (200..300).contains(&resp.status);
        self.tally.check(ok, || {
            format!("{method} {path}: {} {}", resp.status, String::from_utf8_lossy(&resp.body))
        });
        if !ok {
            return None;
        }
        let route = match method {
            "PATCH" => Route::Patch,
            "PUT" => Route::Put,
            _ => Route::Miss,
        };
        self.records.push(Record { route, start: t0, end: t1 });
        if resp.body.len() > self.largest.len() && method == "POST" {
            self.largest.clone_from(&resp.body);
        }
        Some(resp.body)
    }

    /// POSTs a solve, parses the solution through `proto::parse_solution`
    /// and checks it: equal to `expected` when the revision was solved
    /// before, otherwise a dominating set of `graph` (which becomes the
    /// expectation). A cache read byte-identical to the last checked one
    /// of the same revision passes without a second parse, which keeps
    /// client CPU out of the server's way.
    fn solve(
        &mut self,
        name: &str,
        solver: &str,
        config: &str,
        graph: &Graph,
        expected: &mut Option<Vec<usize>>,
    ) -> Option<usize> {
        let body = self.send("POST", "/solve", &solve_body(name, solver, config))?;
        if expected.is_none() {
            self.checked_read.clear();
        } else if !self.checked_read.is_empty() && body == self.checked_read {
            if let Some(last) = self.records.last_mut() {
                last.route = Route::Hit;
            }
            self.tally.check(true, String::new);
            return expected.as_ref().map(Vec::len);
        }
        let doc = std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(text).map_err(|e| e.to_string()));
        if let (Ok(doc), Some(last)) = (&doc, self.records.last_mut()) {
            if doc.get("cached").and_then(Value::as_bool) == Some(true) {
                last.route = Route::Hit;
            }
        }
        let parsed = doc.and_then(|doc| {
            doc.get("solution").ok_or("no solution".to_string()).and_then(proto::parse_solution)
        });
        let view = match parsed {
            Ok(view) => view,
            Err(e) => {
                self.tally.fail(format!("{solver} on {name}: unparseable body: {e}"));
                return None;
            }
        };
        let ok = view.valid
            && view.size == view.vertices.len()
            && match expected {
                Some(set) => *set == view.vertices,
                None => is_dominating_set(graph, &view.vertices),
            };
        self.tally.check(ok, || format!("{solver} on {name}: wrong answer"));
        if ok && expected.is_some() && self.records.last().is_some_and(|r| r.route == Route::Hit) {
            self.checked_read = body;
        }
        let size = view.size;
        if ok && expected.is_none() {
            *expected = Some(view.vertices);
        }
        Some(size)
    }

    /// PUTs `graph` as `name`; checks the stored size.
    fn put(&mut self, name: &str, graph: &Graph) -> bool {
        let path = format!("/graphs/{name}");
        let Some(body) = self.send("PUT", &path, to_edge_list(graph).as_bytes()) else {
            return false;
        };
        let doc = std::str::from_utf8(&body).ok().and_then(|t| json::parse(t).ok());
        let n = doc.as_ref().and_then(|d| d.get("n")).and_then(Value::as_u64);
        let m = doc.as_ref().and_then(|d| d.get("m")).and_then(Value::as_u64);
        let ok = n == Some(graph.n() as u64) && m == Some(graph.m() as u64);
        self.tally.check(ok, || format!("PUT {name}: stored n/m differ"));
        ok
    }
}

/// What one client thread hands back.
struct ClientResult {
    tally: Tally,
    records: Vec<Record>,
    rejected: u64,
    spans: Vec<Span>,
    largest: Vec<u8>,
    graph: Graph,
    last_set: Option<Vec<usize>>,
}

/// One operation of a client's sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Repeated `mds/algorithm1` read of the client's graph.
    Read,
    /// One-edge PATCH, then a re-solve.
    Patch,
    /// PUT of a fresh graph, then two cold solves on it.
    Cold,
}

/// Where, when and as whom one client runs.
#[derive(Debug, Clone, Copy)]
struct Plan {
    addr: SocketAddr,
    /// Client index; names its graphs.
    index: usize,
    /// Seed of this client's operation sequence.
    seed: u64,
    /// Span run id of this client's first request.
    first_id: u64,
    trace: bool,
    origin: Instant,
    deadline: Instant,
}

/// One client's closed loop until `plan.deadline`, starting from its
/// uploaded graph `own` and the set served for it.
fn client_loop(
    plan: Plan,
    mut own: (Graph, Vec<(usize, usize)>),
    base_set: Vec<usize>,
) -> ClientResult {
    let Plan { addr, index, .. } = plan;
    let mut c = Client {
        addr,
        conn: None,
        tally: Tally::default(),
        records: Vec::new(),
        rejected: 0,
        largest: Vec::new(),
        checked_read: Vec::new(),
    };
    let mut rng = SmallRng::seed_from_u64(plan.seed);
    let name = format!("client{index}");
    let cold_name = format!("client{index}-cold");
    let mut expected = Some(base_set);
    let mut block: Vec<Op> = Vec::new();
    while Instant::now() < plan.deadline {
        if block.is_empty() {
            block.extend(std::iter::repeat_n(Op::Read, BLOCK_HITS));
            block.extend(std::iter::repeat_n(Op::Patch, BLOCK_PATCHES));
            block.extend(std::iter::repeat_n(Op::Cold, BLOCK_COLD));
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        match block.pop().expect("refilled above") {
            Op::Read => {
                c.solve(&name, "mds/algorithm1", ALG1_CONFIG, &own.0, &mut expected);
            }
            Op::Patch => {
                let (lo, hi) = own.1[rng.gen_range(0..own.1.len())];
                let (mut u, mut v) = (lo, lo);
                for _ in 0..16 {
                    u = rng.gen_range(lo..hi);
                    v = rng.gen_range(lo..hi);
                    if u != v && !own.0.has_edge(u, v) {
                        break;
                    }
                }
                if u == v || own.0.has_edge(u, v) {
                    continue;
                }
                let body =
                    format!("{{\"updates\": [{{\"op\": \"insert\", \"u\": {u}, \"v\": {v}}}]}}");
                if c.send("PATCH", &format!("/graphs/{name}"), body.as_bytes()).is_none() {
                    continue;
                }
                own.0.add_edge(u, v);
                expected = None;
                c.solve(&name, "mds/algorithm1", ALG1_CONFIG, &own.0, &mut expected);
            }
            Op::Cold => {
                let (cold, _) = pieced_graph(&mut rng, COLD_PIECES);
                if !c.put(&cold_name, &cold) {
                    continue;
                }
                for (solver, config) in
                    [("mds/algorithm1", ALG1_CONFIG), ("mds/theorem44", T44_CONFIG)]
                {
                    if c.solve(&cold_name, solver, config, &cold, &mut None).is_none() {
                        continue;
                    }
                    let miss = c.records.last().is_some_and(|r| r.route == Route::Miss);
                    c.tally.check(miss, || format!("cold {solver} solve was a cache hit"));
                }
            }
        }
    }
    // The stored graph must be the one this client patched.
    let stored =
        http::request(addr, "GET", &format!("/graphs/{name}"), b"", TIMEOUT).ok().and_then(|r| {
            let doc = json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
            Some((doc.get("n")?.as_u64()?, doc.get("m")?.as_u64()?))
        });
    c.tally.check(stored == Some((own.0.n() as u64, own.0.m() as u64)), || {
        format!("{name}: stored graph differs from the client's model")
    });
    // One span per request, tagged with a request id unique across
    // clients and sessions.
    let tracer = Tracer::new(plan.trace, plan.origin);
    for (k, r) in c.records.iter().enumerate() {
        tracer.set_run(plan.first_id + k as u64);
        tracer.record(r.route.span_name(), r.start, r.end);
    }
    ClientResult {
        tally: c.tally,
        records: c.records,
        rejected: c.rejected,
        spans: tracer.into_spans(),
        largest: c.largest,
        graph: own.0,
        last_set: expected,
    }
}

/// The set-up a run repeats: client graphs generated, server spawned,
/// graphs uploaded.
struct Setup {
    server: ServerHandle,
    graphs: Vec<(Graph, Vec<(usize, usize)>)>,
    gen_s: f64,
    put_ms: Vec<f64>,
}

fn setup(seed: u64, tally: &mut Tally) -> Option<Setup> {
    let t = Instant::now();
    let graphs: Vec<_> = (0..CLIENTS)
        .map(|i| pieced_graph(&mut SmallRng::seed_from_u64(derive_seed(seed, i as u64)), PIECES))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    // Finished jobs are reaped after a short retention, so memory does
    // not grow with the number of requests a run completes.
    let config =
        ServeConfig { workers: WORKERS, job_retention: JOB_RETENTION, ..ServeConfig::default() };
    let server = match Server::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            tally.fail(format!("server failed to start: {e:?}"));
            return None;
        }
    };
    let mut put_ms = Vec::new();
    for (i, (g, _)) in graphs.iter().enumerate() {
        let t = Instant::now();
        let resp = http::request(
            server.addr(),
            "PUT",
            &format!("/graphs/client{i}"),
            to_edge_list(g).as_bytes(),
            TIMEOUT,
        );
        put_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = resp.as_ref().is_ok_and(|r| r.status == 201);
        tally.check(ok, || format!("setup PUT client{i}: {:?}", resp.map(|r| r.status)));
    }
    Some(Setup { server, graphs, gen_s, put_ms })
}

/// Reads `/metrics` as a JSON document.
fn scrape(addr: SocketAddr, tally: &mut Tally) -> Value {
    let doc = http::request(addr, "GET", "/metrics", b"", TIMEOUT)
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| json::parse(std::str::from_utf8(&r.body).ok()?).ok());
    tally.check(doc.is_some(), || "GET /metrics failed".to_string());
    doc.unwrap_or(Value::Null)
}

fn counter(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Total solver time (µs) and count over every solver's histogram.
fn solver_time(doc: &Value) -> (f64, f64) {
    let mut total = (0.0, 0.0);
    if let Some(Value::Obj(solvers)) = doc.get("solvers") {
        for s in solvers.values() {
            let lat = s.get("latency");
            let count = lat.and_then(|l| l.get("count")).and_then(Value::as_f64).unwrap_or(0.0);
            let mean =
                lat.and_then(|l| l.get("mean_micros")).and_then(Value::as_f64).unwrap_or(0.0);
            total.0 += mean * count;
            total.1 += count;
        }
    }
    total
}

/// Sums of the `/metrics` counters over the sessions' measured loops.
#[derive(Debug, Default)]
struct ServerDeltas {
    hits: f64,
    lookups: f64,
    reused: f64,
    solver_us: f64,
    solver_jobs: f64,
}

impl ServerDeltas {
    fn add(&mut self, before: &Value, after: &Value) {
        let delta = |key: &str| counter(after, key) - counter(before, key);
        self.hits += delta("cache_hits");
        self.lookups += delta("cache_hits") + delta("cache_misses");
        self.reused += delta("components_reused");
        let ((t1, n1), (t0, n0)) = (solver_time(after), solver_time(before));
        self.solver_us += t1 - t0;
        self.solver_jobs += n1 - n0;
    }
}

/// Runs the workload: [`SESSIONS`] times a fresh set-up and server, the
/// closed loop for its share of the run, and the final checks. Metrics
/// pool every session's requests.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut tally = Tally::default();
    let mut m = Measured::default();
    let mut gen_s = Vec::new();
    let mut put_ms = Vec::new();
    let registry = SolverRegistry::with_defaults();
    let alg1 = SolveConfig::mds().radii(RADII);
    let mut direct_base: Vec<Vec<usize>> = Vec::new();
    let mut records = Vec::new();
    let mut spans = Vec::new();
    let mut rejected = 0;
    let mut largest = Vec::new();
    let mut deltas = ServerDeltas::default();
    let mut counts = PipelineCounts::default();
    let tr = Tracer::new(cfg.trace, Instant::now());
    for session in 0..SESSIONS {
        // The counts describe the last session's final graphs.
        counts = PipelineCounts::default();
        let t = Instant::now();
        let Some(Setup { server, graphs, gen_s: g, put_ms: p }) = setup(cfg.seed, &mut tally)
        else {
            return Outcome { tally, ..Outcome::default() };
        };
        m.setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(g);
        put_ms.extend(p);
        let addr = server.addr();

        // The first solve of each uploaded graph equals a direct registry
        // solve; its size is `set_size`.
        if direct_base.is_empty() {
            for (i, (g, _)) in graphs.iter().enumerate() {
                let inst = Instance::sequential(format!("client{i}"), g.clone());
                let set = timed_solve(&registry, "mds/algorithm1", &inst, &alg1, &mut tally)
                    .map(|(sol, _)| sol.vertices)
                    .unwrap_or_default();
                m.set_size += set.len();
                m.lower_bound += crate::packing::packing_lower_bound(g);
                direct_base.push(set);
            }
        }
        for (i, base) in direct_base.iter().enumerate() {
            let served = http::request(
                addr,
                "POST",
                "/solve",
                &solve_body(&format!("client{i}"), "mds/algorithm1", ALG1_CONFIG),
                TIMEOUT,
            )
            .ok()
            .and_then(|r| json::parse(std::str::from_utf8(&r.body).ok()?).ok())
            .and_then(|d| proto::parse_solution(d.get("solution")?).ok());
            tally.check(served.is_some_and(|s| s.vertices == *base), || {
                format!("client{i}: served set differs from the registry's")
            });
        }

        let before = scrape(addr, &mut tally);
        let origin = Instant::now();
        let deadline = origin + cfg.seconds / SESSIONS;
        let results: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = graphs
                .into_iter()
                .zip(direct_base.clone())
                .enumerate()
                .map(|(index, (own, base))| {
                    let tag = u64::from(session) * CLIENTS as u64 + index as u64;
                    let plan = Plan {
                        addr,
                        index,
                        seed: derive_seed(cfg.seed, 100 + tag),
                        first_id: tag << 40,
                        trace: cfg.trace,
                        origin,
                        deadline,
                    };
                    scope.spawn(move || client_loop(plan, own, base))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        m.loop_s += origin.elapsed().as_secs_f64();
        deltas.add(&before, &scrape(addr, &mut tally));
        server.shutdown();

        for (i, r) in results.into_iter().enumerate() {
            tally.absorb(r.tally);
            records.extend(r.records);
            spans.extend(r.spans);
            rejected += r.rejected;
            if r.largest.len() > largest.len() {
                largest = r.largest;
            }
            // The last served answer equals a direct registry solve on
            // the client's final graph; those solves, timed, make up
            // `solve_s`.
            let inst = Instance::sequential(format!("client{i}"), r.graph);
            let direct = if cfg.trace {
                tr.set_run(u64::MAX - u64::from(session) * CLIENTS as u64 - i as u64);
                let (set, c) = traced_algorithm1(&tr, &registry, &inst, RADII, &mut tally);
                counts.add(c);
                set
            } else {
                timed_solve(&registry, "mds/algorithm1", &inst, &alg1, &mut tally)
                    .map(|(sol, s)| {
                        m.solve_s.push(s);
                        sol.vertices
                    })
                    .unwrap_or_default()
            };
            tally.check(r.last_set.is_some_and(|s| s == direct), || {
                format!("client{i}: final served set differs from the registry's")
            });
        }
    }

    let by = |route: Route| -> Vec<f64> {
        records.iter().filter(|r| r.route == route).map(Record::ms).collect()
    };
    m.ops = records.len();
    m.latency_ms = records.iter().map(Record::ms).collect();
    tally.check(m.latency_ms.len() >= 1000, || {
        format!("only {} requests: p99 rests on fewer than 10 samples", m.latency_ms.len())
    });
    if !cfg.trace {
        return Outcome { metrics: m.metrics(), tally, spans: Vec::new() };
    }

    let misses = by(Route::Miss);
    let miss_ms = misses.iter().sum::<f64>() / misses.len().max(1) as f64;
    let solver_ms = deltas.solver_us / 1e3 / deltas.solver_jobs.max(1.0);
    let mut metrics: Vec<Metric> = vec![
        metric("gen.scale_instance_s", median(&gen_s), "s"),
        metric("serve.hit_ms", median(&by(Route::Hit)), "ms"),
        metric("serve.miss_ms", miss_ms, "ms"),
        metric("serve.patch_ms", median(&by(Route::Patch)), "ms"),
        metric("serve.put_ms", median(&put_ms), "ms"),
        metric("serve.solver_ms", solver_ms, "ms"),
        metric("serve.wait_and_wire_ms", miss_ms - solver_ms, "ms"),
        metric("serve.cache_hit_share", deltas.hits / deltas.lookups.max(1.0), "fraction"),
        metric("serve.components_reused", deltas.reused, "count"),
        metric("serve.rejected", rejected as f64, "count"),
    ];
    let view = std::str::from_utf8(&largest)
        .ok()
        .and_then(|t| json::parse(t).ok())
        .and_then(|d| proto::parse_solution(d.get("solution")?).ok());
    match view {
        Some(view) => metrics.extend(wire_timings(&view, 5, &mut tally)),
        None => tally.fail("largest response does not parse"),
    }
    let replay = tr.into_spans();
    metrics.extend(crate::pipeline::pipeline_layers(&RunTotals::from_spans(&replay), counts));
    spans.extend(replay);
    Outcome { tally, metrics, spans }
}
