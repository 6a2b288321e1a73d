//! The message-passing engine's round loop and its fault model:
//! message drops, crash-stop vertices, and bounded round-asynchrony.
//!
//! [`MessagePassingRuntime`] runs one synchronous send/receive/decide
//! loop; its `fault` field layers these faults on it:
//!
//! * **Drops** — each directed delivery `(u → v, round)` can be lost.
//!   [`DropPolicy::Bernoulli`] draws independently per delivery;
//!   [`DropPolicy::TargetedHubs`] silences the highest-degree senders
//!   outright (an adversary attacking exactly the vertices Theorem 4.4
//!   leans on).
//! * **Crash-stop** — [`CrashPolicy`] picks a vertex set and a crash
//!   round; from that round on a crashed vertex neither sends,
//!   receives, nor decides. Its earlier decisions stand; if it never
//!   decided it stays *silent* and shows up in the report.
//! * **Skew** — bounded asynchrony: at round `ρ` a vertex may receive a
//!   neighbor's message from any round in `[ρ − s, ρ]` (never earlier
//!   than round 1). Exactly one message per live neighbor still arrives
//!   each round, so round-structured algorithms see stale but
//!   well-formed traffic.
//!
//! Everything derives deterministically from [`FaultConfig::seed`] via
//! a splitmix-style hash over `(seed, domain, edge, round)`: the same
//! config replays the same drops, the same crash set, the same
//! staleness draws, and therefore the same [`FaultReport`] — and the
//! Bernoulli threshold test makes drop sets *nested* in the rate, so
//! higher intensities strictly add faults rather than reshuffling them.
//!
//! With [`FaultConfig::default`] (no faults) every vertex stays alive,
//! every delivery arrives fresh, and the loop is plain synchronous
//! message passing.

use crate::algorithm::{LocalAlgorithm, NodeCtx};
use crate::ids::IdAssignment;
use crate::runtime::{MessageAccounting, MessagePassingRuntime, RunResult, RuntimeError};
use lmds_graph::{par, Graph};
use std::fmt;
use std::str::FromStr;

/// Message-drop policy, per directed delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DropPolicy {
    /// No deliveries are dropped.
    #[default]
    None,
    /// Each delivery is independently lost with probability
    /// `per_mille / 1000` (clamped to 1000). Same seed + higher rate
    /// drops a superset of the lower rate's messages.
    Bernoulli {
        /// Drop probability in thousandths.
        per_mille: u16,
    },
    /// The `⌈per_mille/1000 · n⌉` highest-degree vertices (ties to the
    /// smaller vertex index) have **all** outgoing messages dropped —
    /// a deterministic adversary aimed at the hubs.
    TargetedHubs {
        /// Fraction of vertices silenced, in thousandths.
        per_mille: u16,
    },
}

/// Crash-stop policy: which vertices crash, and at which round they
/// fall silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CrashPolicy {
    /// No vertex crashes.
    #[default]
    None,
    /// `count` vertices chosen by seeded hash crash at `round` (they
    /// participate in all rounds `< round`). Same seed + higher count
    /// crashes a superset.
    Random {
        /// Number of vertices to crash (clamped to `n`).
        count: u32,
        /// First round the crashed vertices are silent in.
        round: u32,
    },
    /// The `count` highest-degree vertices (ties to the smaller index)
    /// crash at `round`.
    Hubs {
        /// Number of vertices to crash (clamped to `n`).
        count: u32,
        /// First round the crashed vertices are silent in.
        round: u32,
    },
}

/// Complete description of a fault scenario. `Default` is the zero
/// config: no drops, no crashes, no skew — fault-free
/// [`MessagePassingRuntime`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultConfig {
    /// Seed for every randomized draw (drops, crash sets, staleness).
    pub seed: u64,
    /// Message-drop policy.
    pub drop: DropPolicy,
    /// Crash-stop policy.
    pub crash: CrashPolicy,
    /// Maximum staleness (rounds) of a delivered message; 0 = fully
    /// synchronous. The parser accepts at most [`MAX_SKEW`].
    pub skew: u32,
}

/// The largest skew [`FaultConfig::from_str`] accepts. The fault
/// experiments use skew ≤ 3; the bound keeps a skew arriving as text
/// (a daemon request) from inflating round caps into runs that never
/// end.
pub const MAX_SKEW: u32 = 64;

impl FaultConfig {
    /// Whether any fault is actually injected. The seed alone is inert.
    pub fn is_active(&self) -> bool {
        self.drop != DropPolicy::None || self.crash != CrashPolicy::None || self.skew > 0
    }

    /// Extra decision rounds a fault-aware decider should allow itself
    /// before abandoning completeness and deciding on partial evidence:
    /// enough to absorb retransmission latency under `skew`-bounded
    /// asynchrony (stale-but-complete evidence arrives within `O(skew)`
    /// extra rounds). Zero when no fault is active.
    pub fn grace(&self) -> u32 {
        if self.is_active() {
            self.skew.saturating_mul(2).saturating_add(6)
        } else {
            0
        }
    }
}

impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_active() {
            return write!(f, "none");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        match self.drop {
            DropPolicy::None => {}
            DropPolicy::Bernoulli { per_mille } => {
                parts.push(format!("drop=bernoulli:{per_mille}"))
            }
            DropPolicy::TargetedHubs { per_mille } => parts.push(format!("drop=hubs:{per_mille}")),
        }
        match self.crash {
            CrashPolicy::None => {}
            CrashPolicy::Random { count, round } => {
                parts.push(format!("crash=random:{count}@{round}"));
            }
            CrashPolicy::Hubs { count, round } => parts.push(format!("crash=hubs:{count}@{round}")),
        }
        if self.skew > 0 {
            parts.push(format!("skew={}", self.skew));
        }
        write!(f, "{}", parts.join(";"))
    }
}

/// Error parsing a [`FaultConfig`] from its compact string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.0)
    }
}

impl std::error::Error for ParseFaultError {}

/// Parses `"count@round"`.
fn parse_at(v: &str) -> Result<(u32, u32), ParseFaultError> {
    let (c, r) = v
        .split_once('@')
        .ok_or_else(|| ParseFaultError(format!("expected count@round, got {v:?}")))?;
    let count = c.parse().map_err(|_| ParseFaultError(format!("bad count {c:?}")))?;
    let round = r.parse().map_err(|_| ParseFaultError(format!("bad round {r:?}")))?;
    Ok((count, round))
}

impl FromStr for FaultConfig {
    type Err = ParseFaultError;

    /// Parses the [`Display`](fmt::Display) form:
    /// `"none"`, or `;`-separated parts among `seed=<u64>`,
    /// `drop=bernoulli:<per_mille>` / `drop=hubs:<per_mille>`,
    /// `crash=random:<count>@<round>` / `crash=hubs:<count>@<round>`,
    /// and `skew=<rounds>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(FaultConfig::default());
        }
        let mut cfg = FaultConfig::default();
        for part in s.split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ParseFaultError(format!("expected key=value, got {part:?}")))?;
            match key.trim() {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| ParseFaultError(format!("bad seed {value:?}")))?;
                }
                "drop" => {
                    let (kind, rate) = value.split_once(':').ok_or_else(|| {
                        ParseFaultError(format!("expected kind:rate in {value:?}"))
                    })?;
                    let per_mille = rate
                        .parse()
                        .map_err(|_| ParseFaultError(format!("bad drop rate {rate:?}")))?;
                    cfg.drop = match kind {
                        "bernoulli" => DropPolicy::Bernoulli { per_mille },
                        "hubs" => DropPolicy::TargetedHubs { per_mille },
                        other => {
                            return Err(ParseFaultError(format!("unknown drop kind {other:?}")))
                        }
                    };
                }
                "crash" => {
                    let (kind, spec) = value.split_once(':').ok_or_else(|| {
                        ParseFaultError(format!("expected kind:spec in {value:?}"))
                    })?;
                    let (count, round) = parse_at(spec)?;
                    cfg.crash = match kind {
                        "random" => CrashPolicy::Random { count, round },
                        "hubs" => CrashPolicy::Hubs { count, round },
                        other => {
                            return Err(ParseFaultError(format!("unknown crash kind {other:?}")))
                        }
                    };
                }
                "skew" => {
                    cfg.skew = value
                        .parse()
                        .map_err(|_| ParseFaultError(format!("bad skew {value:?}")))?;
                    if cfg.skew > MAX_SKEW {
                        return Err(ParseFaultError(format!(
                            "skew {} exceeds the maximum {MAX_SKEW}",
                            cfg.skew
                        )));
                    }
                }
                other => return Err(ParseFaultError(format!("unknown key {other:?}"))),
            }
        }
        Ok(cfg)
    }
}

/// What actually happened during a faulty execution — fully determined
/// by `(graph, ids, algorithm, FaultConfig)`, so identical seeds replay
/// identical reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Directed deliveries suppressed by the drop policy (messages a
    /// live sender put on the wire that never arrived).
    pub messages_dropped: u64,
    /// Vertices the crash policy took down, sorted.
    pub crashed: Vec<usize>,
    /// Crashed vertices that never reached a decision — they produced
    /// no output and must be covered by the live vertices (or reported
    /// as an infeasibility witness).
    pub silent: Vec<usize>,
    /// Largest staleness (rounds) of any delivered message.
    pub max_staleness: u32,
}

/// Outcome of [`MessagePassingRuntime::run_with_report`]: like
/// [`RunResult`], but crashed vertices that never decided carry `None`,
/// and the [`FaultReport`] rides along.
#[derive(Debug, Clone)]
pub struct FaultyRun<O> {
    /// Per-vertex outputs; `None` for crashed-silent vertices.
    pub outputs: Vec<Option<O>>,
    /// Round each vertex decided at (0 for silent vertices).
    pub decided_at: Vec<u32>,
    /// Global round complexity over the vertices that did decide.
    pub rounds: u32,
    /// Bits accounted for messages put on the wire by live senders
    /// (dropped messages were sent, so they count).
    pub messages: MessageAccounting,
    /// The realized fault trace.
    pub report: FaultReport,
}

impl<O> FaultyRun<O> {
    /// The decision histogram over decided vertices (entry `r` counts
    /// decisions at round `r`).
    pub fn decided_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.rounds as usize + 1];
        for (v, &r) in self.decided_at.iter().enumerate() {
            if self.outputs[v].is_some() {
                hist[r as usize] += 1;
            }
        }
        hist
    }
}

/// splitmix64 finalizer — the same dependency-free mixer the id
/// assignments use, rehosted here so fault draws stay self-contained.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash chain over the draw coordinates: every fault decision
/// is a pure function of `(seed, domain, a, b, c)`.
fn draw(seed: u64, domain: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut h = seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for x in [a, b, c] {
        h = mix64(h ^ x.wrapping_add(0x9E37_79B9_7F4A_7C15));
    }
    mix64(h)
}

const DOMAIN_DROP: u64 = 0xD20B;
const DOMAIN_SKEW: u64 = 0x5CE3;
const DOMAIN_CRASH: u64 = 0xC2A5;

/// The `count` top-degree vertices (ties to the smaller index), sorted
/// by vertex index.
fn top_degree(g: &Graph, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order.truncate(count.min(g.n()));
    order.sort_unstable();
    order
}

/// A [`FaultConfig`] materialized against a concrete graph: the crash
/// schedule is resolved to explicit vertices, and per-delivery draws
/// are answered from the seed.
#[derive(Debug, Clone)]
struct FaultPlan {
    config: FaultConfig,
    /// `crash_round[v]` = first round `v` is silent in, if it crashes.
    crash_round: Vec<Option<u32>>,
    /// Senders silenced by [`DropPolicy::TargetedHubs`].
    hub_dropped: Vec<bool>,
}

impl FaultPlan {
    /// Resolves `config` against `g`: picks the crash set and the hub
    /// set. Deterministic in `(g, config)`.
    fn materialize(g: &Graph, config: &FaultConfig) -> FaultPlan {
        let n = g.n();
        let mut crash_round = vec![None; n];
        match config.crash {
            CrashPolicy::None => {}
            CrashPolicy::Random { count, round } => {
                // Seeded ranking; prefixes are nested in `count`.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&v| (draw(config.seed, DOMAIN_CRASH, v as u64, 0, 0), v));
                for &v in order.iter().take(count as usize) {
                    crash_round[v] = Some(round);
                }
            }
            CrashPolicy::Hubs { count, round } => {
                for v in top_degree(g, count as usize) {
                    crash_round[v] = Some(round);
                }
            }
        }
        let mut hub_dropped = vec![false; n];
        if let DropPolicy::TargetedHubs { per_mille } = config.drop {
            let k = (n as u64 * u64::from(per_mille.min(1000))).div_ceil(1000) as usize;
            for v in top_degree(g, k) {
                hub_dropped[v] = true;
            }
        }
        FaultPlan { config: *config, crash_round, hub_dropped }
    }

    /// The crash set, sorted.
    fn crashed_vertices(&self) -> Vec<usize> {
        (0..self.crash_round.len()).filter(|&v| self.crash_round[v].is_some()).collect()
    }

    /// Whether `v` participates in round `round` (send, receive, and
    /// decide all stop at its crash round).
    fn alive_at(&self, v: usize, round: u32) -> bool {
        self.crash_round[v].is_none_or(|c| round < c)
    }

    /// Whether `v` can still decide in some round after `round`.
    fn decides_after(&self, v: usize, round: u32) -> bool {
        self.crash_round[v].is_none_or(|c| c > round + 1)
    }

    /// Whether the delivery `u → v` at `round` is dropped.
    fn dropped(&self, u: usize, v: usize, round: u32) -> bool {
        match self.config.drop {
            DropPolicy::None => false,
            DropPolicy::Bernoulli { per_mille } => {
                let roll =
                    draw(self.config.seed, DOMAIN_DROP, u as u64, v as u64, u64::from(round))
                        % 1000;
                roll < u64::from(per_mille.min(1000))
            }
            DropPolicy::TargetedHubs { .. } => self.hub_dropped[u],
        }
    }

    /// Staleness of the delivery `u → v` at `round`: the message
    /// actually delivered was sent `staleness` rounds ago, in
    /// `[0, min(skew, round − 1)]` (round-1 traffic is never stale —
    /// nothing older exists).
    fn staleness(&self, u: usize, v: usize, round: u32) -> u32 {
        let bound = self.config.skew.min(round.saturating_sub(1));
        if bound == 0 {
            return 0;
        }
        (draw(self.config.seed, DOMAIN_SKEW, u as u64, v as u64, u64::from(round))
            % u64::from(bound + 1)) as u32
    }
}

impl MessagePassingRuntime {
    /// Executes `algo` under the fault plan. Terminates when every
    /// vertex that can still decide has decided; crashed-silent
    /// vertices yield `None` outputs.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimitExceeded`] (with the accumulated
    /// [`FaultReport`]) if a live vertex is still undecided at the cap;
    /// [`RuntimeError::SizeMismatch`] on malformed input.
    pub fn run_with_report<A: LocalAlgorithm>(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<FaultyRun<A::Output>, (RuntimeError, FaultReport)> {
        if g.n() != ids.n() {
            return Err((
                RuntimeError::SizeMismatch { graph_n: g.n(), ids_n: ids.n() },
                FaultReport::default(),
            ));
        }
        let plan = FaultPlan::materialize(g, &self.fault);
        let n = g.n();
        let id_bits = ids.bits();
        // Each phase is sized by the identifiers on the wire, the work
        // its items carry: the send phase by the previous round's (its
        // own are unknown until sent), the receive phase by its round's.
        let wire_ids = |bits: u64| (bits / u64::from(id_bits.max(1))) as usize;
        let mut last_round_bits = 0u64;
        let mut report = FaultReport { crashed: plan.crashed_vertices(), ..Default::default() };
        let (mut max_msg, mut total_msg) = (0u64, 0u64);
        // Round-0 decisions (a vertex crashing at round 0 never decides).
        let mut nodes: Vec<Node<A::State, A::Output>> = (0..n)
            .map(|v| {
                let state = algo.init(&NodeCtx { id: ids.id_of(v) });
                let output = if plan.alive_at(v, 0) { algo.decide(&state, 0) } else { None };
                Node { state, output, decided_at: 0 }
            })
            .collect();
        let mut round = 0u32;
        // Message history ring: round `r`'s messages live at slot
        // `(r − 1) % depth`; staleness is at most `min(skew, round − 1)`
        // with `round ≤ max_rounds`, so it never reaches past `depth`
        // rounds (and a huge hand-built skew allocates nothing extra).
        let depth = self.fault.skew.min(max_rounds) as usize + 1;
        let mut history: Vec<Vec<Option<A::Message>>> = Vec::with_capacity(depth);
        loop {
            let undecided = nodes
                .iter()
                .enumerate()
                .filter(|&(v, node)| node.output.is_none() && plan.decides_after(v, round))
                .count();
            if undecided == 0 {
                break;
            }
            if round >= max_rounds {
                report.silent = silent_vertices(&plan, &nodes);
                return Err((
                    RuntimeError::RoundLimitExceeded { limit: max_rounds, undecided },
                    report,
                ));
            }
            round += 1;
            // Send phase: live vertices broadcast (decided ones keep
            // relaying, crashed ones are silent); bits are accounted
            // for everything put on the wire — dropped or not. Each
            // worker collects its range's messages in vertex order.
            let sent = par::fold_mut(
                &mut nodes,
                par::workers(wire_ids(last_round_bits), par::SWEEP_GRAIN),
                || Sent { msgs: Vec::new(), max_bits: 0, total_bits: 0 },
                |sent, v, node| {
                    let msg = plan.alive_at(v, round).then(|| algo.send(&node.state, round));
                    if let Some(m) = &msg {
                        let deg = g.degree(v) as u64;
                        if deg > 0 {
                            let bits = algo.message_bits(m, id_bits);
                            sent.total_bits += bits * deg;
                            sent.max_bits = sent.max_bits.max(bits);
                        }
                    }
                    sent.msgs.push(msg);
                },
                Sent::merge,
            );
            max_msg = max_msg.max(sent.max_bits);
            total_msg += sent.total_bits;
            last_round_bits = sent.total_bits;
            if history.len() < depth {
                history.push(sent.msgs);
            } else {
                history[(round as usize - 1) % depth] = sent.msgs;
            }
            // Receive and decide, fused per live vertex: one (possibly
            // stale) message per live neighbor, in host neighbor order,
            // minus drops. The history is read-only here, so every
            // inbox borrows straight from it.
            let delivered = par::fold_mut(
                &mut nodes,
                par::workers(wire_ids(last_round_bits), par::SWEEP_GRAIN),
                || Delivered { inbox: Vec::new(), dropped: 0, max_staleness: 0 },
                |acc, v, node| {
                    if !plan.alive_at(v, round) {
                        return;
                    }
                    acc.inbox.clear();
                    for &u in g.neighbors(v) {
                        let u = u as usize;
                        let stale = plan.staleness(u, v, round);
                        let src = round - stale; // ≥ 1 by the staleness bound
                        let Some(m) = &history[(src as usize - 1) % depth][u] else {
                            continue; // sender crashed at src
                        };
                        if plan.dropped(u, v, round) {
                            acc.dropped += 1;
                            continue;
                        }
                        acc.max_staleness = acc.max_staleness.max(stale);
                        acc.inbox.push(m);
                    }
                    algo.receive(&mut node.state, round, &acc.inbox);
                    if node.output.is_none() {
                        if let Some(o) = algo.decide(&node.state, round) {
                            node.output = Some(o);
                            node.decided_at = round;
                        }
                    }
                },
                Delivered::merge,
            );
            report.messages_dropped += delivered.dropped;
            report.max_staleness = report.max_staleness.max(delivered.max_staleness);
        }
        report.silent = silent_vertices(&plan, &nodes);
        let messages = MessageAccounting::Measured {
            max_message_bits: max_msg,
            total_message_bits: total_msg,
        };
        let (outputs, decided_at): (Vec<_>, Vec<_>) =
            nodes.into_iter().map(|node| (node.output, node.decided_at)).unzip();
        let rounds = decided_at.iter().copied().max().unwrap_or(0);
        Ok(FaultyRun { outputs, decided_at, rounds, messages, report })
    }

    /// Executes `algo` under the fault plan and demands that every
    /// vertex decide: crashed-silent vertices surface as
    /// [`RuntimeError::RoundLimitExceeded`]. Callers that want partial
    /// outputs plus the report use
    /// [`MessagePassingRuntime::run_with_report`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RoundLimitExceeded`] if some vertex never decides
    /// within `max_rounds`; [`RuntimeError::SizeMismatch`] on malformed
    /// input.
    pub fn run<A: LocalAlgorithm>(
        &self,
        g: &Graph,
        ids: &IdAssignment,
        algo: &A,
        max_rounds: u32,
    ) -> Result<RunResult<A::Output>, RuntimeError> {
        let run = self.run_with_report(g, ids, algo, max_rounds).map_err(|(e, _)| e)?;
        let silent = run.outputs.iter().filter(|o| o.is_none()).count();
        if silent > 0 {
            return Err(RuntimeError::RoundLimitExceeded { limit: max_rounds, undecided: silent });
        }
        Ok(RunResult {
            outputs: run.outputs.into_iter().map(|o| o.expect("checked above")).collect(),
            decided_at: run.decided_at,
            rounds: run.rounds,
            messages: run.messages,
        })
    }
}

fn silent_vertices<S, O>(plan: &FaultPlan, nodes: &[Node<S, O>]) -> Vec<usize> {
    plan.crashed_vertices().into_iter().filter(|&v| nodes[v].output.is_none()).collect()
}

/// One vertex of a message-passing run: its state and, once it has
/// decided, its output and decision round. The round loop updates each
/// in place on whichever worker owns its range.
struct Node<S, O> {
    state: S,
    output: Option<O>,
    decided_at: u32,
}

/// What one worker's send phase produced: its range's messages in
/// vertex order (`None` for crashed senders) and their bit accounting.
struct Sent<M> {
    msgs: Vec<Option<M>>,
    max_bits: u64,
    total_bits: u64,
}

impl<M> Sent<M> {
    /// Appends the next range; ranges merge left to right, so the
    /// messages stay in vertex order.
    fn merge(mut self, mut next: Sent<M>) -> Sent<M> {
        self.msgs.append(&mut next.msgs);
        self.max_bits = self.max_bits.max(next.max_bits);
        self.total_bits += next.total_bits;
        self
    }
}

/// One worker's delivery counters, plus the inbox buffer it reuses for
/// every vertex of its range (lent messages, never copies).
struct Delivered<'h, M> {
    inbox: Vec<&'h M>,
    dropped: u64,
    max_staleness: u32,
}

impl<'h, M> Delivered<'h, M> {
    fn merge(self, next: Delivered<'h, M>) -> Delivered<'h, M> {
        Delivered {
            inbox: self.inbox,
            dropped: self.dropped + next.dropped,
            max_staleness: self.max_staleness.max(next.max_staleness),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::OracleRuntime;
    use crate::view::LocalView;
    use crate::Decider;

    /// Needs radius 2: the minimum id in the 2-ball.
    struct MinIdRadius2;
    impl Decider for MinIdRadius2 {
        type Output = u64;
        fn decide(&self, view: &LocalView) -> Option<u64> {
            (view.rounds() >= 2).then(|| view.vertex_ids().iter().copied().min().unwrap())
        }
    }

    fn corpus() -> Vec<Graph> {
        vec![
            lmds_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            lmds_graph::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
            lmds_graph::Graph::from_edges(
                7,
                &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)],
            ),
        ]
    }

    #[test]
    fn zero_fault_is_bit_identical_to_message_passing() {
        // The zero plan is plain synchronous message passing; the
        // oracle's ball replay is an independent implementation of the
        // same semantics. (Message-bit totals are pinned by the
        // `message-passing` and `faulty` rows of the local-sweep golden.)
        for g in corpus() {
            let ids = IdAssignment::shuffled(g.n(), 9);
            let oracle = OracleRuntime.run(&g, &ids, &MinIdRadius2, 16).unwrap();
            let run = MessagePassingRuntime::default()
                .run_with_report(&g, &ids, &MinIdRadius2, 16)
                .unwrap();
            let outputs: Vec<u64> = run.outputs.iter().map(|o| o.unwrap()).collect();
            assert_eq!(oracle.outputs, outputs);
            assert_eq!(oracle.decided_at, run.decided_at);
            assert_eq!(oracle.rounds, run.rounds);
            assert!(run.messages.is_measured());
            assert_eq!(run.report, FaultReport::default());
        }
    }

    #[test]
    fn identical_seeds_replay_identical_reports() {
        let g = corpus().remove(2);
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 42,
            drop: DropPolicy::Bernoulli { per_mille: 250 },
            crash: CrashPolicy::Random { count: 2, round: 2 },
            skew: 1,
        };
        let rt = MessagePassingRuntime { fault: cfg };
        let a = rt.run_with_report(&g, &ids, &MinIdRadius2, 32);
        let b = rt.run_with_report(&g, &ids, &MinIdRadius2, 32);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.report, y.report);
                assert_eq!(x.outputs, y.outputs);
            }
            (Err((ex, rx)), Err((ey, ry))) => {
                assert_eq!(ex, ey);
                assert_eq!(rx, ry);
            }
            other => panic!("replay diverged: {:?}", other.0.is_ok()),
        }
    }

    #[test]
    fn bernoulli_drop_counts_are_monotone_in_rate() {
        let g = corpus().remove(0);
        let ids = IdAssignment::sequential(g.n());
        let mut last = 0u64;
        for per_mille in [0u16, 100, 300, 600, 1000] {
            let cfg = FaultConfig {
                seed: 7,
                drop: DropPolicy::Bernoulli { per_mille },
                ..FaultConfig::default()
            };
            // MinIdRadius2 always decides at round 2 regardless of
            // content, so every run sees the same delivery schedule.
            let run = MessagePassingRuntime { fault: cfg }
                .run_with_report(&g, &ids, &MinIdRadius2, 16)
                .unwrap();
            assert!(
                run.report.messages_dropped >= last,
                "rate {per_mille}: {} < {last}",
                run.report.messages_dropped
            );
            last = run.report.messages_dropped;
        }
        assert!(last > 0, "full drop rate must drop every delivery");
    }

    #[test]
    fn crashed_vertices_fall_silent_and_are_reported() {
        let g = corpus().remove(0); // path on 6
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 3,
            crash: CrashPolicy::Hubs { count: 2, round: 1 },
            ..FaultConfig::default()
        };
        let run = MessagePassingRuntime { fault: cfg }
            .run_with_report(&g, &ids, &MinIdRadius2, 16)
            .unwrap();
        assert_eq!(run.report.crashed.len(), 2);
        assert_eq!(run.report.silent, run.report.crashed, "crashed at round 1, decide at 2");
        for &v in &run.report.silent {
            assert!(run.outputs[v].is_none());
        }
        // The strict path turns silence into a typed error.
        let err =
            MessagePassingRuntime { fault: cfg }.run(&g, &ids, &MinIdRadius2, 16).unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { undecided: 2, .. }));
    }

    #[test]
    fn round_limit_error_carries_the_report() {
        let g = corpus().remove(0);
        let ids = IdAssignment::sequential(g.n());
        let cfg = FaultConfig {
            seed: 5,
            drop: DropPolicy::Bernoulli { per_mille: 1000 },
            ..FaultConfig::default()
        };
        // A decider that waits for real evidence (at least one merged
        // neighbor view) — under total loss it can never decide, so
        // the cap trips and the report rides the error.
        struct NeedsNeighbor;
        impl Decider for NeedsNeighbor {
            type Output = usize;
            fn decide(&self, view: &LocalView) -> Option<usize> {
                (view.vertex_ids().len() >= 2).then(|| view.vertex_ids().len())
            }
        }
        let (err, report) = MessagePassingRuntime { fault: cfg }
            .run_with_report(&g, &ids, &NeedsNeighbor, 4)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::RoundLimitExceeded { limit: 4, .. }));
        assert!(report.messages_dropped > 0);
    }

    #[test]
    fn skew_delivers_stale_but_wellformed_traffic() {
        let g = corpus().remove(2);
        let ids = IdAssignment::shuffled(g.n(), 4);
        let cfg = FaultConfig { seed: 11, skew: 2, ..FaultConfig::default() };
        let run = MessagePassingRuntime { fault: cfg }
            .run_with_report(&g, &ids, &MinIdRadius2, 32)
            .unwrap();
        assert!(run.report.max_staleness <= 2);
        assert_eq!(run.report.messages_dropped, 0);
        assert!(run.outputs.iter().all(|o| o.is_some()));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let configs = [
            FaultConfig::default(),
            FaultConfig {
                seed: 9,
                drop: DropPolicy::Bernoulli { per_mille: 150 },
                ..FaultConfig::default()
            },
            FaultConfig {
                drop: DropPolicy::TargetedHubs { per_mille: 200 },
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: 1,
                crash: CrashPolicy::Random { count: 3, round: 2 },
                ..FaultConfig::default()
            },
            FaultConfig {
                crash: CrashPolicy::Hubs { count: 1, round: 4 },
                skew: 2,
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: 77,
                drop: DropPolicy::Bernoulli { per_mille: 500 },
                crash: CrashPolicy::Random { count: 2, round: 1 },
                skew: 3,
            },
        ];
        for cfg in configs {
            let s = cfg.to_string();
            let parsed: FaultConfig = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            if cfg.is_active() {
                assert_eq!(parsed, cfg, "{s}");
            } else {
                assert!(!parsed.is_active());
            }
        }
        assert!("drop=sometimes:1".parse::<FaultConfig>().is_err());
        assert!("crash=random:nope".parse::<FaultConfig>().is_err());
        assert!("frobnicate=1".parse::<FaultConfig>().is_err());
    }

    #[test]
    fn skew_is_bounded_at_parse_and_safe_when_hand_built() {
        let max: FaultConfig = format!("skew={MAX_SKEW}").parse().expect("the maximum parses");
        assert_eq!(max.skew, MAX_SKEW);
        for too_big in [MAX_SKEW + 1, u32::MAX] {
            let err = format!("skew={too_big}").parse::<FaultConfig>().unwrap_err();
            assert!(err.to_string().contains("exceeds the maximum"), "{err}");
        }
        // A hand-built skew past the parser's bound: the grace budget
        // saturates and the history ring is sized by the round cap.
        let huge = FaultConfig { skew: u32::MAX, ..FaultConfig::default() };
        assert_eq!(huge.grace(), u32::MAX);
        let g = corpus().remove(2);
        let ids = IdAssignment::shuffled(g.n(), 4);
        let run = MessagePassingRuntime { fault: huge }
            .run_with_report(&g, &ids, &MinIdRadius2, 32)
            .unwrap();
        assert!(run.outputs.iter().all(|o| o.is_some()));
    }
}
