//! Registry/direct-call parity: for every registered solver,
//! `SolverRegistry::solve(key, ...)` must return the *identical* vertex
//! set to the legacy direct function on a corpus of small generated
//! graphs — the unified API is a seam, not a fork. Also checks that
//! every execution mode a solver supports agrees with its centralized
//! run.

use lmds_api::{ExecutionMode, Instance, SolveConfig, SolverRegistry};
use lmds_asdim::ControlFunction;
use lmds_core::{algorithm1, algorithm2, baselines, theorem44_mds, theorem44_mvc, Radii};
use lmds_graph::{par, Graph};
use lmds_localsim::IdAssignment;

const RADII: Radii = Radii { one_cut: 2, two_cut: 2 };
const AFFINE: ControlFunction = ControlFunction::Affine { a: 1, b: 1, dim: 1 };
const BUDGET: u64 = 50_000_000;

fn corpus() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = vec![
        ("path10".into(), lmds_gen::basic::path(10)),
        ("cycle9".into(), lmds_gen::basic::cycle(9)),
        ("star5".into(), lmds_gen::basic::star(5)),
        ("complete5".into(), lmds_gen::basic::complete(5)),
        ("strip5".into(), lmds_gen::ding::strip(5)),
        ("fan4".into(), lmds_gen::ding::fan(4)),
        ("clique_pendants5".into(), lmds_gen::adversarial::clique_with_pendants(5)),
        ("regular12".into(), lmds_gen::random::random_regular(12, 3, 1)),
    ];
    for seed in 0..3u64 {
        out.push((format!("tree_s{seed}"), lmds_gen::trees::random_tree(13, seed)));
        out.push((
            format!("outerplanar_s{seed}"),
            lmds_gen::outerplanar::random_maximal_outerplanar(10, seed),
        ));
    }
    out
}

/// The legacy direct call for each registry key — exactly what the
/// pre-API consumers used to invoke.
fn legacy(key: &str, g: &Graph, ids: &IdAssignment) -> Vec<usize> {
    let mut sol = match key {
        "mds/algorithm1" => algorithm1(g, ids, RADII).solution,
        "mds/algorithm2" => algorithm2(g, ids, &AFFINE).solution,
        "mds/theorem44" => theorem44_mds(g, ids),
        "mds/trees-folklore" => baselines::trees_folklore(g, ids),
        "mds/take-all" => baselines::take_all(g),
        "mds/exact" => lmds_graph::exact::with_thread_engine(|e| {
            e.solve_mds(g, lmds_api::ExactBackend::Auto, BUDGET)
        })
        .expect("corpus graphs are small"),
        "mvc/theorem44" => theorem44_mvc(g, ids),
        "mvc/algorithm1" => lmds_core::mvc::algorithm1_mvc(g, ids, RADII).solution,
        "mvc/regular-take-all" => baselines::regular_mvc_take_all(g),
        "mvc/exact" => lmds_graph::exact::with_thread_engine(|e| {
            e.solve_mvc(g, lmds_api::ExactBackend::Auto, BUDGET)
        })
        .expect("corpus graphs are small"),
        other => panic!("no legacy mapping for solver key {other} — extend this test"),
    };
    sol.sort_unstable();
    sol.dedup();
    sol
}

fn config_for(registry: &SolverRegistry, key: &str) -> SolveConfig {
    let solver = registry.get(key).expect("registered");
    let mut cfg = SolveConfig::new(solver.problem()).radii(RADII).opt_budget(BUDGET);
    if key == "mds/algorithm2" {
        cfg = cfg.control(AFFINE);
    }
    cfg
}

#[test]
fn every_registered_solver_matches_its_legacy_direct_call() {
    let registry = SolverRegistry::with_defaults();
    let keys = registry.keys();
    assert!(keys.len() >= 8, "acceptance: ≥ 8 registered solvers, got {keys:?}");
    for (name, g) in corpus() {
        for seed in [0u64, 11] {
            let ids = IdAssignment::shuffled(g.n(), seed);
            let inst = Instance::new(format!("{name}_ids{seed}"), g.clone(), ids.clone());
            for &key in &keys {
                let cfg = config_for(&registry, key);
                let sol = registry
                    .solve(key, &inst, &cfg)
                    .unwrap_or_else(|e| panic!("{key} on {name} seed={seed}: {e}"));
                sol.verify(&inst).unwrap_or_else(|e| panic!("{key} on {name} seed={seed}: {e}"));
                let expected = legacy(key, &g, &ids);
                assert_eq!(
                    sol.vertices, expected,
                    "{key} on {name} seed={seed}: registry and direct call diverge"
                );
            }
        }
    }
}

#[test]
fn every_execution_mode_agrees_with_centralized() {
    let registry = SolverRegistry::with_defaults();
    // A sub-corpus: cross-mode runs simulate every vertex, keep it small.
    let graphs = vec![
        ("path8", lmds_gen::basic::path(8)),
        ("cycle7", lmds_gen::basic::cycle(7)),
        ("strip4", lmds_gen::ding::strip(4)),
        ("tree10", lmds_gen::trees::random_tree(10, 5)),
    ];
    for &key in &registry.keys() {
        let solver = registry.get(key).expect("registered");
        if !solver.modes().contains(&ExecutionMode::LOCAL_ORACLE) {
            continue; // centralized-only (exact baselines)
        }
        for (name, g) in &graphs {
            let inst = Instance::shuffled(*name, g.clone(), 3);
            let base_cfg = config_for(&registry, key);
            let reference = registry
                .solve(key, &inst, &base_cfg)
                .unwrap_or_else(|e| panic!("{key} centralized on {name}: {e}"));
            for mode in [
                ExecutionMode::LOCAL_ORACLE,
                ExecutionMode::LOCAL_MESSAGE_PASSING,
                ExecutionMode::LOCAL_SHARDED,
            ] {
                let cfg = config_for(&registry, key).mode(mode);
                // The sharded name runs the oracle on 3 forced workers.
                let solve = || registry.solve(key, &inst, &cfg);
                let sol = if mode == ExecutionMode::LOCAL_SHARDED {
                    par::with_workers(3, solve)
                } else {
                    solve()
                }
                .unwrap_or_else(|e| panic!("{key} {mode} on {name}: {e}"));
                assert_eq!(
                    sol.vertices, reference.vertices,
                    "{key} on {name}: {mode} diverges from centralized"
                );
                assert!(sol.rounds.is_some(), "{key} {mode}: distributed runs report rounds");
                let stats = sol.messages.as_ref().unwrap_or_else(|| {
                    panic!("{key} {mode}: every distributed run carries MessageStats")
                });
                assert_eq!(
                    mode == ExecutionMode::LOCAL_MESSAGE_PASSING,
                    stats.accounting.is_measured(),
                    "{key} {mode}: only message passing measures bits"
                );
                assert_eq!(
                    stats.decided_at.iter().sum::<usize>(),
                    inst.n(),
                    "{key} {mode}: histogram covers every vertex"
                );
            }
        }
    }
}

#[test]
fn registry_keys_are_stable_and_prefixed() {
    let registry = SolverRegistry::with_defaults();
    let keys = registry.keys();
    // The stable public key set — additions are fine, renames are a
    // breaking API change and must be deliberate.
    for expected in [
        "mds/algorithm1",
        "mds/algorithm2",
        "mds/theorem44",
        "mds/trees-folklore",
        "mds/take-all",
        "mds/exact",
        "mvc/theorem44",
        "mvc/algorithm1",
        "mvc/regular-take-all",
        "mvc/exact",
    ] {
        assert!(keys.contains(&expected), "missing stable key {expected}: {keys:?}");
    }
}
