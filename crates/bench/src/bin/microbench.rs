//! Dependency-free micro-benchmark harness (replaces the former
//! Criterion benches, which cannot be vendored offline): times every
//! registry solver on representative workloads via the uniform
//! `Solver::solve` path and prints a markdown table.
//!
//! Sections (combinable; without any flag the registry-solver table
//! runs):
//!
//! * `--kernel` — the graph-kernel benches (ball queries, twin
//!   reduction, full registry sweep) tracking the CSR/scratch
//!   substrate; before/after numbers in `results/kernel_speedup.md`.
//! * `--local` — the two LOCAL engines under all four runtime names,
//!   on representative explicit-round and adaptive solvers; committed
//!   numbers in `results/local_microbench.md`.
//! * `--cuts` — the `CutEngine` benches: the Definition-2.1 predicate
//!   sweeps and the full Algorithm 1 pipeline on instances up to two
//!   orders of magnitude past the pre-engine ceiling, plus naive
//!   reference rows on the small instance; before/after numbers in
//!   `results/cut_engine_speedup.md`.
//! * `--exact` — the exact-engine benches: `mds/exact` / `mvc/exact`
//!   under every `ExactBackend` on naive-solvable instances, plus
//!   engine-scale rows the naive oracle cannot finish; committed
//!   numbers in `results/exact_scale.md`.
//! * `--dynamic` — the dynamic-subsystem benches: `DynamicGraph` batch
//!   application (splice vs bulk rebuild), ball-scoped invalidation
//!   (`dirty_ball`), and `DynamicSolver` component-scoped re-solve
//!   (cold / warm / one-dirty-component) on a multi-component corpus
//!   graph.
//!
//! The `--kernel` and `--dynamic` sections additionally write
//! machine-readable `results/BENCH_kernel.json` /
//! `results/BENCH_dynamic.json` (best/median/p95/mean per row, a
//! combined corpus checksum, and `git describe` provenance) so CI and
//! downstream tooling can diff timings without parsing markdown.
//!
//! Usage:
//! ```text
//! microbench [--iters <n>] [--kernel] [--local] [--cuts] [--exact] [--dynamic]
//! ```

use lmds_api::{BatchJob, BatchRunner, ExecutionMode, Instance, SolveConfig, SolverRegistry};
use lmds_bench::{render_markdown, sample, section_table, write_bench_json, BenchRow, Table};
use lmds_core::Radii;
use std::time::Instant;

fn time_case(
    registry: &SolverRegistry,
    key: &str,
    inst: &Instance,
    cfg: &SolveConfig,
    iters: u32,
) -> (f64, f64, usize) {
    let mut best = f64::INFINITY;
    let mut total = 0f64;
    let mut size = 0;
    for _ in 0..iters {
        let start = Instant::now();
        let sol = registry.solve(key, inst, cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
        let us = start.elapsed().as_secs_f64() * 1e6;
        assert!(sol.is_valid(), "{key} on {}", inst.name);
        best = best.min(us);
        total += us;
        size = sol.size();
    }
    (best, total / iters as f64, size)
}

/// A graph of `k` disjoint triangles (3k vertices): every triangle is a
/// true-twin class, stressing the grouping step of the twin reduction.
fn triangles(k: usize) -> lmds_graph::Graph {
    let mut edges = Vec::with_capacity(3 * k);
    for t in 0..k {
        let b = 3 * t;
        edges.push((b, b + 1));
        edges.push((b + 1, b + 2));
        edges.push((b, b + 2));
    }
    lmds_graph::Graph::from_edges(3 * k, &edges)
}

/// The graph-kernel benches: ball queries (`N^r[v]`), twin reduction,
/// and a full registry sweep through the `BatchRunner`. These are the
/// substrate hot paths behind Lemmas 3.2/3.3, Lemma 4.2, and Theorem
/// 4.4; their before/after numbers live in `results/kernel_speedup.md`.
fn kernel_benches(iters: u32) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    let tree = lmds_gen::trees::random_tree(20_000, 1);
    for r in [2u32, 4] {
        let (stats, sum) = sample(iters, || {
            let mut acc = 0usize;
            let mut v = 0;
            while v < tree.n() {
                acc += lmds_graph::bfs::ball(&tree, v, r).len();
                v += 10;
            }
            acc
        });
        rows.push(BenchRow {
            bench: format!("ball r={r} (2000 queries)"),
            workload: "random_tree(20000)".into(),
            n: tree.n(),
            checksum: sum,
            stats,
        });
    }
    let tri = triangles(3000);
    let (stats, sum) =
        sample(iters, || lmds_graph::twins::TwinReduction::compute(&tri).reduced.graph.n());
    rows.push(BenchRow {
        bench: "twin reduction".into(),
        workload: "3000 triangles".into(),
        n: tri.n(),
        checksum: sum,
        stats,
    });
    let cat = lmds_gen::basic::caterpillar(4000, 2);
    let (stats, sum) = sample(iters, || lmds_graph::twins::twin_classes(&cat).len());
    rows.push(BenchRow {
        bench: "twin classes".into(),
        workload: "caterpillar(4000,2)".into(),
        n: cat.n(),
        checksum: sum,
        stats,
    });
    // Full registry sweep through the batch engine (S0-style corpus).
    let registry = SolverRegistry::with_defaults();
    let instances = vec![
        Instance::shuffled("path60", lmds_gen::basic::path(60), 1),
        Instance::shuffled("tree80", lmds_gen::trees::random_tree(80, 2), 2),
        Instance::shuffled(
            "outerplanar40",
            lmds_gen::outerplanar::random_maximal_outerplanar(40, 3),
            3,
        ),
    ];
    let jobs: Vec<BatchJob> = registry
        .keys()
        .into_iter()
        .map(|key| {
            let solver = registry.get(key).expect("registered");
            BatchJob::new(key, SolveConfig::new(solver.problem()).radii(Radii::practical(2, 2)))
        })
        .collect();
    let sweep_iters = iters.min(5);
    let (stats, sum) = sample(sweep_iters, || {
        BatchRunner::new()
            .run(&registry, &jobs, &instances)
            .iter()
            .map(|r| r.result.as_ref().expect("sweep solve").size())
            .sum()
    });
    rows.push(BenchRow {
        bench: format!("registry sweep ({} solvers × 3)", registry.len()),
        workload: "batch corpus".into(),
        n: instances.iter().map(|i| i.n()).sum(),
        checksum: sum,
        stats,
    });
    rows
}

/// The dynamic-subsystem benches (`--dynamic`): `DynamicGraph` batch
/// application on both update paths (per-op splice vs bulk CSR
/// rebuild), ball-scoped invalidation (`dirty_ball`), and
/// `DynamicSolver` component-scoped re-solve — cold, warm (full
/// reuse), and the one-dirty-component steady state the serving layer
/// hits after `PATCH /graphs/{name}`. The end-to-end speedup numbers
/// live in `results/dynamic-bench.csv` (the `dynamic-bench`
/// experiment); these rows track the substrate costs.
fn dynamic_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_api::dynamic::solve_with_cache;
    use lmds_core::DynamicSolver;
    use lmds_graph::dynamic::{DynamicGraph, GraphUpdate, SPLICE_LIMIT};

    let mut rows = Vec::new();
    // A 16-component disjoint union (≈1 600 vertices): incremental
    // edits stay inside component 0, everything else must be reused.
    let mut g = lmds_graph::Graph::from_edges(0, &[]);
    for c in 0..16u64 {
        let part = match c % 3 {
            0 => lmds_gen::outerplanar::random_maximal_outerplanar(100, c),
            1 => lmds_gen::trees::random_tree(100, c + 100),
            _ => lmds_gen::ding::strip(50),
        };
        g.disjoint_union(&part);
    }
    let workload = "16-component union".to_string();
    let n = g.n();
    // Edge toggles confined to component 0. A pair that happens to be
    // a chord of the outerplanar component settles into a stable
    // toggle cycle after the first iteration (skipped insert / real
    // delete), so the timings stay steady either way.
    let fresh: Vec<(usize, usize)> = (0..SPLICE_LIMIT + 2).map(|i| (i, i + 50)).collect();
    let toggle = |pairs: &[(usize, usize)], on: bool| -> Vec<GraphUpdate> {
        pairs
            .iter()
            .map(
                |&(u, v)| {
                    if on {
                        GraphUpdate::InsertEdge(u, v)
                    } else {
                        GraphUpdate::RemoveEdge(u, v)
                    }
                },
            )
            .collect()
    };

    let mut dg = DynamicGraph::new(g.clone());
    let splice = &fresh[..4];
    let (stats, sum) = sample(iters, || {
        dg.apply(&toggle(splice, true)).expect("splice insert");
        dg.apply(&toggle(splice, false)).expect("splice remove");
        dg.graph().m()
    });
    rows.push(BenchRow {
        bench: "apply 2×k=4 toggle (splice path)".into(),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });
    let (stats, sum) = sample(iters, || {
        dg.apply(&toggle(&fresh, true)).expect("bulk insert");
        dg.apply(&toggle(&fresh, false)).expect("bulk remove");
        dg.graph().m()
    });
    rows.push(BenchRow {
        bench: format!("apply 2×k={} toggle (rebuild path)", fresh.len()),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });
    let (stats, sum) = sample(iters, || {
        dg.clear_touched();
        dg.apply(&toggle(splice, true)).expect("dirty insert");
        let dirty = dg.dirty_ball(2).len();
        dg.apply(&toggle(splice, false)).expect("dirty remove");
        dirty
    });
    rows.push(BenchRow {
        bench: "k=4 toggle + dirty_ball r=2".into(),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });

    let inst = Instance::sequential("dyn-corpus16", g);
    let cfg = SolveConfig::mds().radii(Radii::practical(2, 2));
    let mut solver = DynamicSolver::new();
    let (stats, sum) = sample(iters, || {
        solver.clear();
        solve_with_cache(&inst, &cfg, &mut solver).expect("cold solve").0.size()
    });
    rows.push(BenchRow {
        bench: "resolve cold (cache cleared)".into(),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });
    let (stats, sum) = sample(iters, || {
        let (sol, reuse) = solve_with_cache(&inst, &cfg, &mut solver).expect("warm solve");
        assert_eq!(reuse.components_resolved, 0, "warm solve must reuse everything");
        sol.size()
    });
    rows.push(BenchRow {
        bench: "resolve warm (full reuse)".into(),
        workload: workload.clone(),
        n,
        checksum: sum,
        stats,
    });
    let mut dyn_inst = lmds_api::dynamic::DynamicInstance::new(inst);
    dyn_inst.solve(&cfg).expect("warm-up solve");
    let (stats, sum) = sample(iters, || {
        dyn_inst.apply(&toggle(&fresh[..1], true)).expect("steady insert");
        let (a, s) = dyn_inst.solve(&cfg).expect("steady solve");
        assert!(s.components_reused >= 15, "only component 0 may re-solve");
        dyn_inst.apply(&toggle(&fresh[..1], false)).expect("steady remove");
        let (b, _) = dyn_inst.solve(&cfg).expect("steady solve back");
        a.size() + b.size()
    });
    rows.push(BenchRow {
        bench: "edge toggle + 2 resolves (1 dirty component)".into(),
        workload,
        n,
        checksum: sum,
        stats,
    });
    rows
}

/// The LOCAL-runtime benches (`--local`): the distributed hot path —
/// every runtime name on representative explicit-round and adaptive
/// solvers, with rounds and message bits alongside the timings so
/// round/message regressions surface next to latency ones (the
/// committed numbers live in `results/local_microbench.md`). Also
/// returns the rows in [`BenchRow`] form, so `--local` emits
/// `results/BENCH_local.json` in the same schema as the kernel and
/// dynamic sections (bench = `solver@runtime`, checksum mixes the
/// solution set and round count — bit-identical across names).
fn local_benches(iters: u32) -> (Table, Vec<BenchRow>) {
    use lmds_api::RuntimeKind;
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut t = Table::new(
        &format!("microbench --local — LOCAL runtime backends, {iters} iterations (µs)"),
        &[
            "solver",
            "runtime",
            "instance",
            "n",
            "rounds",
            "max msg (bits)",
            "total bits",
            "best (µs)",
            "mean (µs)",
        ],
    );
    let registry = SolverRegistry::with_defaults();
    let tree = Instance::shuffled("tree1000", lmds_gen::trees::random_tree(1000, 1), 1);
    let outer = Instance::shuffled(
        "outerplanar300",
        lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        2,
    );
    let aug = Instance::shuffled(
        "augmentation",
        lmds_gen::ding::AugmentationSpec::standard(6, 3, 2, 3).generate(),
        3,
    );
    // The engine-scale instance: one order of magnitude past the n=41
    // augmentation. Message passing is included — its views stay
    // bounded on strip-heavy augmentations, so flooding is affordable
    // here (unlike the n ≥ 1000 tier, covered by `local-sweep-large`).
    let aug_big = lmds_bench::large_augmentation(520, 11);
    let cases: Vec<(&str, &Instance)> = vec![
        ("mds/theorem44", &outer),
        ("mds/trees-folklore", &tree),
        ("mds/algorithm1", &aug),
        ("mds/algorithm1", &aug_big),
    ];
    for (key, inst) in cases {
        for kind in RuntimeKind::ALL {
            let cfg =
                SolveConfig::mds().mode(ExecutionMode::Local(kind)).radii(Radii::practical(2, 3));
            let mut last = None;
            let (stats_us, checksum) = sample(iters, || {
                let sol = registry.solve(key, inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
                assert!(sol.is_valid(), "{key} on {}", inst.name);
                let checksum = sol.vertices.iter().sum::<usize>()
                    + sol.size() * 31
                    + sol.rounds.unwrap_or(0) as usize * 1009;
                last = Some(sol);
                checksum
            });
            let sol = last.expect("iters ≥ 1");
            let msg = sol.messages.as_ref().expect("distributed run");
            let fmt_bits = |b: Option<u64>| b.map_or_else(|| "n/a".into(), |v| v.to_string());
            t.push_row(vec![
                key.into(),
                kind.to_string(),
                inst.name.clone(),
                inst.n().to_string(),
                sol.rounds.expect("distributed").to_string(),
                fmt_bits(msg.max_message_bits()),
                fmt_bits(msg.total_message_bits()),
                format!("{:.1}", stats_us.best),
                format!("{:.1}", stats_us.mean),
            ]);
            rows.push(BenchRow {
                bench: format!("{key}@{kind}"),
                workload: inst.name.clone(),
                n: inst.n(),
                checksum,
                stats: stats_us,
            });
        }
    }
    (t, rows)
}

/// The `CutEngine` benches (`--cuts`): the Definition-2.1 predicate
/// sweeps (`X`, `I`, all local 2-cuts) and the full centralized
/// Algorithm 1 pipeline, on the pre-engine n=41 augmentation and on the
/// engine-scale instances (n ≥ 500 augmentations, n ≥ 1000
/// outerplanar), plus the `I` sweep on the n=1040 augmentation at the
/// radius pairs (1,2) and (3,5). The n=41 rows get a paired "(naive)"
/// row running the reference predicates, so the shared-work win is
/// measured by the same harness; on the large instances the naive path
/// is far too slow to rerun per invocation — the committed before
/// numbers live in `results/cut_engine_speedup.md`.
fn cuts_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_core::local_cuts::{self, CutEngine};
    let mut rows: Vec<BenchRow> = Vec::new();
    let radii = Radii::practical(2, 3);
    let small = Instance::shuffled(
        "augmentation",
        lmds_gen::ding::AugmentationSpec::standard(6, 3, 2, 3).generate(),
        3,
    );
    let instances = vec![
        small.clone(),
        lmds_bench::large_augmentation(520, 11),
        lmds_bench::large_augmentation(1040, 12),
        Instance::sequential(
            "outerplanar1200",
            lmds_gen::outerplanar::random_outerplanar(1200, 25, 7),
        ),
    ];
    let registry = SolverRegistry::with_defaults();
    let mut push = |bench: &str, workload: &str, n: usize, stats, checksum| {
        rows.push(BenchRow { bench: bench.into(), workload: workload.into(), n, checksum, stats });
    };
    for inst in &instances {
        let g = &inst.graph;
        let mut engine = CutEngine::new();
        let (stats, sum) =
            sample(iters, || engine.one_cut_mask(g, radii.one_cut).iter().filter(|&&m| m).count());
        push("X sweep (one_cut_mask)", &inst.name, g.n(), stats, sum);
        let (stats, sum) = sample(iters, || {
            engine.interesting_mask(g, radii.two_cut).iter().filter(|&&m| m).count()
        });
        push("I sweep (interesting_mask)", &inst.name, g.n(), stats, sum);
        let (stats, sum) = sample(iters, || engine.two_cuts(g, radii.two_cut).len());
        push("all local 2-cuts (two_cuts)", &inst.name, g.n(), stats, sum);
        let cfg = SolveConfig::mds().radii(radii);
        let (stats, size) = sample(iters, || {
            let sol = registry.solve("mds/algorithm1", inst, &cfg).expect("algorithm1");
            assert!(sol.is_valid(), "algorithm1 on {}", inst.name);
            sol.size()
        });
        push("pipeline (mds/algorithm1, centralized)", &inst.name, inst.n(), stats, size);
    }
    // The I sweep at the other radius pairs, so a change to the 2-cut
    // sweep is measured at more than one radius.
    let aug1040 = &instances[2].graph;
    for (one, two) in [(1, 2), (3, 5)] {
        let mut engine = CutEngine::new();
        let (stats, sum) =
            sample(iters, || engine.interesting_mask(aug1040, two).iter().filter(|&&m| m).count());
        let bench = format!("I sweep (interesting_mask) at ({one},{two})");
        push(&bench, &instances[2].name, aug1040.n(), stats, sum);
    }
    // Naive reference rows on the small instance only.
    let g = &small.graph;
    let (stats, sum) = sample(iters, || {
        g.vertices().filter(|&v| local_cuts::is_local_one_cut(g, v, radii.one_cut)).count()
    });
    push("X sweep (naive reference)", &small.name, g.n(), stats, sum);
    let (stats, sum) = sample(iters, || {
        g.vertices().filter(|&v| local_cuts::is_interesting(g, v, radii.two_cut)).count()
    });
    push("I sweep (naive reference)", &small.name, g.n(), stats, sum);
    rows
}

/// The exact-engine benches (`--exact`): `mds/exact` and `mvc/exact`
/// through the registry under every [`lmds_api::ExactBackend`] on
/// naive-solvable instances (the backend shoot-out), plus engine-scale
/// rows — auto backend only — on instances the naive oracle cannot
/// finish at all (committed numbers: `results/exact_scale.md`).
fn exact_benches(iters: u32) -> Vec<BenchRow> {
    use lmds_api::ExactBackend;
    let mut rows: Vec<BenchRow> = Vec::new();
    let registry = SolverRegistry::with_defaults();
    // Backend shoot-out tier: small enough for the naive oracle.
    let small = vec![
        Instance::shuffled(
            "augmentation20",
            lmds_gen::ding::AugmentationSpec::standard(4, 1, 1, 1).generate(),
            1,
        ),
        Instance::shuffled(
            "outerplanar16",
            lmds_gen::outerplanar::random_maximal_outerplanar(16, 3),
            3,
        ),
        Instance::shuffled("cycle21", lmds_gen::basic::cycle(21), 5),
    ];
    for inst in &small {
        for key in ["mds/exact", "mvc/exact"] {
            for backend in ExactBackend::ALL {
                let base = if key == "mds/exact" { SolveConfig::mds() } else { SolveConfig::mvc() };
                let cfg = base.exact_backend(backend);
                let (stats, size) = sample(iters, || {
                    let sol =
                        registry.solve(key, inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
                    assert!(sol.is_valid(), "{key} on {}", inst.name);
                    sol.size()
                });
                rows.push(BenchRow {
                    bench: format!("{key}@{backend}"),
                    workload: inst.name.clone(),
                    n: inst.n(),
                    checksum: size,
                    stats,
                });
            }
        }
    }
    // Engine-scale tier: sizes the naive oracle gives up on entirely.
    let large = vec![
        Instance::sequential("strip40", lmds_gen::ding::strip(40)),
        Instance::sequential(
            "outerplanar300",
            lmds_gen::outerplanar::random_maximal_outerplanar(300, 2),
        ),
        Instance::sequential(
            "sparse_outerplanar300",
            lmds_gen::outerplanar::random_outerplanar(300, 25, 7),
        ),
    ];
    for inst in &large {
        for key in ["mds/exact", "mvc/exact"] {
            let base = if key == "mds/exact" { SolveConfig::mds() } else { SolveConfig::mvc() };
            let cfg = base.opt_budget(u64::MAX);
            let (stats, size) = sample(iters, || {
                let sol = registry.solve(key, inst, &cfg).unwrap_or_else(|e| panic!("{key}: {e}"));
                assert!(sol.is_valid(), "{key} on {}", inst.name);
                sol.size()
            });
            rows.push(BenchRow {
                bench: format!("{key}@auto"),
                workload: inst.name.clone(),
                n: inst.n(),
                checksum: size,
                stats,
            });
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 10u32;
    let mut kernel = false;
    let mut local = false;
    let mut cuts = false;
    let mut exact = false;
    let mut dynamic = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                i += 1;
                iters =
                    args.get(i).and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or_else(
                        || {
                            eprintln!(
                            "usage: microbench [--iters <n>] [--kernel] [--local] [--cuts] [--exact] [--dynamic]  (n ≥ 1)"
                        );
                            std::process::exit(2);
                        },
                    );
            }
            "--kernel" => kernel = true,
            "--local" => local = true,
            "--cuts" => cuts = true,
            "--exact" => exact = true,
            "--dynamic" => dynamic = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Sections are combinable (the CI smoke step runs all five).
    if kernel || local || cuts || exact || dynamic {
        if kernel {
            let rows = kernel_benches(iters);
            let title =
                format!("microbench --kernel — graph-kernel hot paths, {iters} iterations (µs)");
            print!("{}", render_markdown(&section_table(&title, &rows)));
            write_bench_json("kernel", iters, &rows);
        }
        if local {
            let (table, rows) = local_benches(iters);
            print!("{}", render_markdown(&table));
            write_bench_json("local", iters, &rows);
        }
        if cuts {
            let rows = cuts_benches(iters);
            let title =
                format!("microbench --cuts — CutEngine predicate sweeps, {iters} iterations (µs)");
            print!("{}", render_markdown(&section_table(&title, &rows)));
            write_bench_json("cuts", iters, &rows);
        }
        if exact {
            let rows = exact_benches(iters);
            let title =
                format!("microbench --exact — exact-engine backends, {iters} iterations (µs)");
            print!("{}", render_markdown(&section_table(&title, &rows)));
            write_bench_json("exact", iters, &rows);
        }
        if dynamic {
            let rows = dynamic_benches(iters);
            let title = format!(
                "microbench --dynamic — DynamicGraph/DynamicSolver substrate, {iters} iterations (µs)"
            );
            print!("{}", render_markdown(&section_table(&title, &rows)));
            write_bench_json("dynamic", iters, &rows);
        }
        return;
    }

    let registry = SolverRegistry::with_defaults();
    let tree = Instance::shuffled("tree1000", lmds_gen::trees::random_tree(1000, 1), 1);
    let outer = Instance::shuffled(
        "outerplanar500",
        lmds_gen::outerplanar::random_maximal_outerplanar(500, 2),
        2,
    );
    let aug = Instance::shuffled(
        "augmentation",
        lmds_gen::ding::AugmentationSpec::standard(6, 3, 2, 3).generate(),
        3,
    );
    let small = Instance::shuffled("path40", lmds_gen::basic::path(40), 5);

    let radii = Radii::practical(2, 3);
    let cases: Vec<(&str, &Instance, SolveConfig)> = vec![
        ("mds/trees-folklore", &tree, SolveConfig::mds()),
        ("mds/trees-folklore", &tree, SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE)),
        ("mds/theorem44", &outer, SolveConfig::mds()),
        ("mds/theorem44", &outer, SolveConfig::mds().mode(ExecutionMode::LOCAL_ORACLE)),
        ("mds/theorem44", &outer, SolveConfig::mds().mode(ExecutionMode::LOCAL_SHARDED)),
        ("mds/algorithm1", &aug, SolveConfig::mds().radii(radii)),
        ("mds/algorithm1", &aug, SolveConfig::mds().radii(radii).mode(ExecutionMode::LOCAL_ORACLE)),
        ("mds/take-all", &aug, SolveConfig::mds()),
        ("mvc/theorem44", &outer, SolveConfig::mvc()),
        ("mvc/algorithm1", &aug, SolveConfig::mvc().radii(radii)),
        ("mvc/regular-take-all", &outer, SolveConfig::mvc()),
        ("mds/exact", &small, SolveConfig::mds()),
        ("mvc/exact", &small, SolveConfig::mvc()),
    ];

    let mut t = Table::new(
        &format!("microbench — registry solvers, {iters} iterations (µs)"),
        &["solver", "mode", "instance", "n", "|S|", "best (µs)", "mean (µs)"],
    );
    for (key, inst, cfg) in &cases {
        let (best, mean, size) = time_case(&registry, key, inst, cfg, iters);
        t.push_row(vec![
            key.to_string(),
            cfg.mode.to_string(),
            inst.name.clone(),
            inst.n().to_string(),
            size.to_string(),
            format!("{best:.1}"),
            format!("{mean:.1}"),
        ]);
    }
    print!("{}", render_markdown(&t));
}
