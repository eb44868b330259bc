//! Property-based tests for the workload generator: every generated
//! template binds, instances preserve template identity, and the daily view
//! is well-formed.

use proptest::prelude::*;
use scope_lang::bind_script;
use scope_opt::{HintSet, Optimizer};
use scope_runtime::Cluster;
use scope_workload::{build_view, normalize_job_name, TemplateSpec, Workload, WorkloadConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any template seed yields a script that parses, binds, validates, and
    /// compiles under the default rule configuration.
    #[test]
    fn every_template_is_compilable(seed in 0u64..100_000, day in 0u32..60, inst in 0u32..3) {
        let spec = TemplateSpec::generate(seed);
        let (script, catalog) = spec.instantiate(day, inst);
        let plan = bind_script(&script, &catalog).expect("generated scripts bind");
        prop_assert!(plan.validate().is_ok());
        let opt = Optimizer::default();
        let compiled = opt.compile(&plan, &opt.default_config()).expect("default compiles");
        prop_assert!(compiled.est_cost > 0.0);
    }

    /// Table 1's row lengths, read from column types alone, are the
    /// schemas' row lengths at every node of every generated template.
    #[test]
    fn row_lens_are_the_schema_row_lengths(seed in 0u64..100_000, day in 0u32..60) {
        let (script, catalog) = TemplateSpec::generate(seed).instantiate(day, 0);
        let plan = bind_script(&script, &catalog).expect("generated scripts bind");
        let schemas = plan.schemas();
        let row_lens = plan.row_lens();
        for &root in plan.outputs() {
            prop_assert_eq!(row_lens[root.index()], schemas[root.index()].avg_row_len());
        }
        let want: Vec<u32> = schemas.iter().map(|s| s.avg_row_len()).collect();
        prop_assert_eq!(row_lens, want);
    }

    /// Template identity is invariant to day and instance (literals and
    /// cardinalities vary; structure does not).
    #[test]
    fn template_identity_is_instance_invariant(
        seed in 0u64..50_000,
        d1 in 0u32..40, i1 in 0u32..3,
        d2 in 0u32..40, i2 in 0u32..3,
    ) {
        let spec = TemplateSpec::generate(seed);
        let (s1, c1) = spec.instantiate(d1, i1);
        let (s2, c2) = spec.instantiate(d2, i2);
        let t1 = bind_script(&s1, &c1).unwrap().template_id();
        let t2 = bind_script(&s2, &c2).unwrap().template_id();
        prop_assert_eq!(t1, t2);
        // And the normalized job name is instance-invariant too.
        prop_assert_eq!(
            normalize_job_name(&spec.instance_name(d1, i1)),
            normalize_job_name(&spec.instance_name(d2, i2))
        );
    }

    /// The daily view always has one consistent row per job.
    #[test]
    fn daily_view_is_well_formed(seed in 0u64..1000, day in 0u32..10) {
        let w = Workload::new(WorkloadConfig {
            seed,
            num_templates: 6,
            adhoc_per_day: 2,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let jobs = w.jobs_for_day(day);
        let view = build_view(&jobs, &Optimizer::default(), &HintSet::new(), &Cluster::default())
            .expect("generated workloads compile on the default path");
        prop_assert_eq!(view.len(), jobs.len());
        for (job, row) in jobs.iter().zip(view.iter()) {
            prop_assert_eq!(row.job_id, job.job_id);
            prop_assert_eq!(row.template, job.template);
            prop_assert!(row.est_cost > 0.0);
            prop_assert!(row.metrics.pn_hours > 0.0);
            prop_assert!(row.features.estimated_cardinalities > 0.0);
            prop_assert!(!row.hint_applied, "no hints installed");
        }
    }
}
