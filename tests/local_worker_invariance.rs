//! Worker-count invariance of both LOCAL engines: the message-passing
//! round loop and the oracle drain split their vertices over
//! `lmds_graph::par` workers, and every result — outputs, decision
//! rounds, message bits and the fault report — must be bit-identical
//! whatever the split. `par::with_workers` forces each count past the
//! automatic grain, so the multi-worker paths run on any machine.

use lmds_core::distributed::{
    Algorithm1Decider, MvcAlgorithm1Decider, Theorem44Decider, Theorem44Local, TreesFolkloreLocal,
};
use lmds_core::Radii;
use lmds_graph::{par, Graph};
use lmds_localsim::{
    FaultConfig, FaultReport, FaultyRun, IdAssignment, LocalAlgorithm, MessagePassingRuntime,
    OracleRuntime, RuntimeError,
};
use std::fmt::Debug;

const WORKERS: [usize; 4] = [1, 2, 4, 7];
const ROUND_CAP: u32 = 24;

/// Zero-fault, Bernoulli-drop, crash and skew plans.
const PLANS: [&str; 4] =
    ["none", "seed=7;drop=bernoulli:150", "seed=3;crash=random:12@2", "seed=11;skew=2"];

/// Everything a message-passing run reports, in comparable form.
type Observed<O> = Result<
    (Vec<Option<O>>, Vec<u32>, u32, Option<u64>, Option<u64>, FaultReport),
    (RuntimeError, FaultReport),
>;

fn observe<O>(run: Result<FaultyRun<O>, (RuntimeError, FaultReport)>) -> Observed<O> {
    run.map(|r| {
        let (max, total) = (r.messages.max_bits(), r.messages.total_bits());
        (r.outputs, r.decided_at, r.rounds, max, total, r.report)
    })
}

/// Runs `algo` under every plan at every worker count and demands the
/// single-worker result from all of them.
fn assert_message_passing_invariant<A>(
    name: &str,
    g: &Graph,
    ids: &IdAssignment,
    algo: impl Fn(&FaultConfig) -> A,
) where
    A: LocalAlgorithm,
    A::Output: PartialEq + Debug,
{
    for plan in PLANS {
        let fault: FaultConfig = plan.parse().expect("the test plans parse");
        let rt = MessagePassingRuntime { fault };
        let algo = algo(&fault);
        let reference =
            observe(par::with_workers(1, || rt.run_with_report(g, ids, &algo, ROUND_CAP)));
        let report = match &reference {
            Ok(run) => {
                assert!(run.3.is_some(), "{name} / {plan}: message passing measures bits");
                &run.5
            }
            Err((_, report)) => report,
        };
        // Each active plan leaves a trace, so the comparison covers the
        // merged drop and staleness counters and the crash report.
        assert_eq!(fault.is_active(), *report != FaultReport::default(), "{name} / {plan}");
        for w in WORKERS {
            let got =
                observe(par::with_workers(w, || rt.run_with_report(g, ids, &algo, ROUND_CAP)));
            assert_eq!(got, reference, "{name} / {plan}: workers={w}");
        }
    }
}

#[test]
fn message_passing_is_worker_invariant_under_every_fault_plan() {
    let g = lmds_gen::scale_instance(600, 3);
    let ids = IdAssignment::shuffled(g.n(), 5);
    // Fault runs take the grace budget the solver layer grants them.
    let grace = |f: &FaultConfig| f.is_active().then(|| f.grace());
    assert_message_passing_invariant("theorem44", &g, &ids, |f| Theorem44Local { grace: grace(f) });
    assert_message_passing_invariant("trees-folklore", &g, &ids, |f| TreesFolkloreLocal {
        grace: grace(f),
    });
    assert_message_passing_invariant("theorem44-view", &g, &ids, |_| Theorem44Decider);
}

/// Runs `decider` on the oracle at one and two workers and demands
/// identical outputs, decision rounds and round counts.
fn assert_oracle_invariant<D>(name: &str, g: &Graph, ids: &IdAssignment, decider: &D)
where
    D: LocalAlgorithm<Output = bool>,
{
    let one = par::with_workers(1, || OracleRuntime.run(g, ids, decider, 64)).expect("decides");
    let two = par::with_workers(2, || OracleRuntime.run(g, ids, decider, 64)).expect("decides");
    assert_eq!(one.outputs, two.outputs, "{name}");
    assert_eq!(one.decided_at, two.decided_at, "{name}");
    assert_eq!(one.rounds, two.rounds, "{name}");
    assert!(one.outputs.iter().any(|&chosen| chosen), "{name}");
}

#[test]
fn oracle_algorithm1_views_are_worker_invariant() {
    let g = lmds_gen::scale_instance(400, 0);
    let ids = IdAssignment::shuffled(g.n(), 1);
    let decider = Algorithm1Decider { radii: Radii::practical(2, 3) };
    assert_oracle_invariant("algorithm1", &g, &ids, &decider);
}

#[test]
fn oracle_mvc_algorithm1_views_are_worker_invariant() {
    let g = lmds_gen::scale_instance(400, 0);
    let ids = IdAssignment::shuffled(g.n(), 1);
    let decider = MvcAlgorithm1Decider { radii: Radii::practical(2, 2) };
    assert_oracle_invariant("mvc-algorithm1", &g, &ids, &decider);
}
