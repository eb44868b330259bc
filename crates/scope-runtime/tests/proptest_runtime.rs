//! Property-based tests for the execution simulator's invariants across
//! random workload shapes and seeds.

use proptest::prelude::*;
use scope_lang::bind_script;
use scope_opt::Optimizer;
use scope_runtime::{execute, Cluster, StageGraph};
use scope_workload::TemplateSpec;

fn compiled(seed: u64, day: u32) -> Option<scope_ir::PhysicalPlan> {
    let spec = TemplateSpec::generate(seed);
    let (script, catalog) = spec.instantiate(day, 0);
    let plan = bind_script(&script, &catalog).ok()?;
    let opt = Optimizer::default();
    let compiled = opt.compile(&plan, &opt.default_config()).ok()?;
    Some(std::sync::Arc::unwrap_or_clone(compiled.physical))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Core metric invariants: strictly positive costs, PNhours decomposes
    /// into CPU+IO, tokens never exceed vertices.
    #[test]
    fn metrics_are_well_formed(seed in 0u64..5000, day in 0u32..30, run in 0u64..50) {
        let Some(plan) = compiled(seed, day) else { return Ok(()) };
        let m = execute(&plan, &Cluster::default(), seed, run);
        prop_assert!(m.latency_sec > 0.0);
        prop_assert!(m.pn_hours > 0.0);
        prop_assert!(m.data_read > 0.0);
        prop_assert!(m.vertices >= 1);
        prop_assert!(m.tokens >= 1 && m.tokens <= m.vertices);
        prop_assert!((m.pn_hours * 3600.0 - (m.cpu_sec + m.io_sec)).abs() < 1e-6);
    }

    /// Bytes moved and vertex counts are run-invariant (the paper's §4.3
    /// observation that grounds the validation model); only times vary.
    #[test]
    fn data_and_vertices_are_noise_free(seed in 0u64..2000, run_a in 0u64..20, run_b in 20u64..40) {
        let Some(plan) = compiled(seed, 3) else { return Ok(()) };
        let cluster = Cluster::default();
        let a = execute(&plan, &cluster, seed, run_a);
        let b = execute(&plan, &cluster, seed, run_b);
        prop_assert_eq!(a.data_read.to_bits(), b.data_read.to_bits());
        prop_assert_eq!(a.data_written.to_bits(), b.data_written.to_bits());
        prop_assert_eq!(a.vertices, b.vertices);
        prop_assert_eq!(a.tokens, b.tokens);
    }

    /// Same seeds => bit-identical metrics (full determinism).
    #[test]
    fn execution_is_reproducible(seed in 0u64..2000, run in 0u64..30) {
        let Some(plan) = compiled(seed, 1) else { return Ok(()) };
        let cluster = Cluster::default();
        let a = execute(&plan, &cluster, seed, run);
        let b = execute(&plan, &cluster, seed, run);
        prop_assert_eq!(a, b);
    }

    /// The deterministic cluster is a lower-variance bound: its PNhours
    /// never exceeds the noisy cluster's expected inflation by much, and
    /// stage accounting matches the graph.
    #[test]
    fn stage_graph_accounts_all_vertices(seed in 0u64..2000) {
        let Some(plan) = compiled(seed, 0) else { return Ok(()) };
        let cluster = Cluster::default();
        let graph = StageGraph::build(&plan, &cluster.config);
        let m = execute(&plan, &cluster, seed, 0);
        prop_assert_eq!(m.vertices, graph.vertices());
        prop_assert_eq!(m.tokens, graph.tokens());
        // Every stage has at least one member and positive parallelism.
        for s in &graph.stages {
            prop_assert!(!s.members.is_empty());
            prop_assert!(s.parallelism >= 1);
        }
    }
}
