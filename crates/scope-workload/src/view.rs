//! The denormalized daily workload view (paper §4, Table 1).
//!
//! One [`ViewRow`] per executed job, combining job metadata, optimizer
//! outputs (estimated cost, rule signature, estimated cardinalities) and
//! runtime statistics (latency, PNhours, vertices, bytes, memory).
//! [`Table1Features`] applies exactly the aggregation functions of Table 1:
//! job-level features take `min` (identical across a job's query trees),
//! per-tree features are summed or averaged across the output trees of the
//! job's DAG via a conceptual super-root (§4.1).

use crate::generator::JobInstance;
use crate::naming::normalize_job_name;
use scope_ir::ids::{production_run_seed, StableHasher};
use scope_ir::logical::{LogicalOp, LogicalPlan};
use scope_ir::{JobId, NodeId, TemplateId};
use scope_opt::{CompileError, HintSet, Optimizer, RuleBits};
use scope_runtime::{ExecutionMetrics, Executor};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Table 1 job-level features after super-root aggregation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table1Features {
    /// Normalized Job Name (min, Job Metadata, J).
    pub normalized_name: String,
    /// Latency (min, Runtime Statistics, J).
    pub latency: f64,
    /// Estimated Cost (min, Optimizer, J).
    pub estimated_cost: f64,
    /// Query Template (min over per-tree template hashes, Job Metadata, Q).
    pub query_template: u64,
    /// Total Number of Vertices (min, Runtime Statistics, J).
    pub total_vertices: f64,
    /// Estimated Cardinalities (sum over trees, Optimizer, Q).
    pub estimated_cardinalities: f64,
    /// Bytes Read (sum over trees, Runtime Statistics, Q).
    pub bytes_read: f64,
    /// Maximum Memory Used (min, Runtime Statistics, J).
    pub max_memory: f64,
    /// Average Memory Used (min, Runtime Statistics, J).
    pub avg_memory: f64,
    /// Average Row Length (avg over trees, Optimizer, Q).
    pub avg_row_length: f64,
    /// Row Count (sum over trees, Optimizer, Q).
    pub row_count: f64,
    /// PNHours (min, Runtime Statistics, J).
    pub pn_hours: f64,
}

impl Table1Features {
    /// Aggregate per Table 1 from the job's logical DAG and its runtime
    /// metrics. Four allocations per call: the normalized name, the plan's
    /// widths (for the roots' row lengths), and one walk's marks and stack,
    /// reused by every output tree.
    #[must_use]
    pub fn aggregate(
        job_name: &str,
        plan: &LogicalPlan,
        est_cost: f64,
        m: &ExecutionMetrics,
    ) -> Self {
        let widths = plan.widths();
        let mut est_cardinalities = 0.0;
        let mut row_count = 0.0;
        let mut row_len_sum = 0.0;
        let mut tree_template_min = u64::MAX;
        let trees = plan.outputs();
        // `marks[i] == tree` marks node `i` as in output tree `tree`
        // (numbered from 1), so no tree clears the last one's marks.
        let mut marks = vec![0u32; plan.len()];
        let mut stack: Vec<NodeId> = Vec::with_capacity(plan.len());
        for (tree, &root) in (1..).zip(trees) {
            marks[root.index()] = tree;
            stack.push(root);
            while let Some(id) = stack.pop() {
                for &child in &plan.node(id).children {
                    if marks[child.index()] != tree {
                        marks[child.index()] = tree;
                        stack.push(child);
                    }
                }
            }
            // Per-tree estimated cardinalities: sum of estimated rows over
            // the tree's operators (what the optimizer logged per tree).
            // The tree's template: its operator tags in arena order, each
            // followed by ','.
            let mut tree_card = 0.0;
            let mut tree_sig = StableHasher::new();
            for (i, _) in marks.iter().enumerate().filter(|&(_, &mark)| mark == tree) {
                let node = plan.node(NodeId(i as u32));
                tree_sig = tree_sig.write(node.op.tag().as_bytes()).write(b",");
                if let LogicalOp::Extract { table } = &node.op {
                    tree_card += table.rows.estimated;
                }
            }
            est_cardinalities += tree_card;
            // Output row count estimate: the root's input table sizes scaled
            // by a fixed per-operator heuristic are already folded into the
            // optimizer; here we log the estimated root cardinality proxy.
            row_count += tree_card;
            row_len_sum += f64::from(plan.row_len(&widths, root));
            tree_template_min = tree_template_min.min(tree_sig.finish());
        }
        let ntrees = trees.len().max(1) as f64;
        Self {
            normalized_name: normalize_job_name(job_name),
            latency: m.latency_sec,
            estimated_cost: est_cost,
            query_template: tree_template_min,
            total_vertices: m.vertices as f64,
            estimated_cardinalities: est_cardinalities,
            bytes_read: m.data_read,
            max_memory: m.max_memory,
            avg_memory: m.avg_memory,
            avg_row_length: row_len_sum / ntrees,
            row_count,
            pn_hours: m.pn_hours,
        }
    }
}

/// One row of the denormalized daily view.
#[derive(Debug, Clone)]
pub struct ViewRow {
    pub job_id: JobId,
    pub day: u32,
    pub template: TemplateId,
    pub recurring: bool,
    pub job_seed: u64,
    /// The job's logical plan ("a description of the job plan", §4).
    /// Shared with the [`JobInstance`] it was built from.
    pub plan: Arc<LogicalPlan>,
    /// Rule signature of the production compilation.
    pub signature: RuleBits,
    /// Estimated cost of the production compilation.
    pub est_cost: f64,
    /// Runtime statistics of the production run.
    pub metrics: ExecutionMetrics,
    pub features: Table1Features,
    /// Whether a SIS hint was applied to this compilation.
    pub hint_applied: bool,
}

/// A production compilation failed on the *default* path while building the
/// daily view — the one place the pipeline has no safe fallback left. A
/// hinted compile that fails with `RuleInstability` is not an error (it
/// falls back to the default configuration); this is the default
/// configuration itself refusing a job, which means the submitted plan is
/// broken, not the steering.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewBuildError {
    /// The job whose compilation failed.
    pub job_id: JobId,
    /// Its submitted (un-normalized) name.
    pub job_name: String,
    /// Its template (for correlating with hints/spans).
    pub template: TemplateId,
    /// The underlying compile failure.
    pub error: CompileError,
}

impl fmt::Display for ViewBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "default-path compile of production job {:?} (`{}`, template {:?}) failed: {}",
            self.job_id, self.job_name, self.template, self.error
        )
    }
}

impl std::error::Error for ViewBuildError {}

/// Compile (honoring SIS hints) and execute a day's jobs, producing the
/// denormalized view. Jobs whose hinted compilation fails fall back to the
/// default configuration, mirroring SCOPE's behaviour of never letting a
/// bad hint take down a production job; a job whose *default-path* compile
/// fails aborts the day with a typed [`ViewBuildError`] instead (generated
/// workloads never trigger this — it guards externally supplied plans).
///
/// Pass a cacheless [`Optimizer`] and a [`scope_runtime::Cluster`] for
/// direct compilation/execution, or the steering pipeline's cached
/// [`Optimizer`] and a [`scope_runtime::CachingExecutor`] so the production
/// compiles and runs share its result caches — under a sticky
/// [`crate::LiteralPolicy`] these are the caches' biggest win, because
/// recurring instances rebind the identical plan day after day.
pub fn build_view<E: Executor>(
    jobs: &[JobInstance],
    optimizer: &Optimizer,
    hints: &HintSet,
    executor: &E,
) -> Result<Vec<ViewRow>, ViewBuildError> {
    let default = optimizer.default_config();
    jobs.iter()
        .map(|job| build_view_row(job, optimizer, hints, &default, executor))
        .collect()
}

/// Build the view row of a single job — [`build_view`]'s per-job body,
/// callable on its own.
///
/// This function is *pure* given its inputs: the row depends only on the
/// job, the hint set, the default configuration, and the (deterministic)
/// compiler and executor — never on other jobs or on call order. That is
/// what lets `qo_advisor`'s day loop build many tenants' rows on a worker
/// pool, in whatever order the workers take them, and still obtain per
/// tenant byte-for-byte the view a serial [`build_view`] would have built.
///
/// `default` must be `optimizer.default_config()`; it is a parameter only so
/// per-job callers don't recompute it.
///
/// # Errors
///
/// [`ViewBuildError`] when the job's *default-path* compile fails — exactly
/// the [`build_view`] contract.
pub fn build_view_row<E: Executor>(
    job: &JobInstance,
    optimizer: &Optimizer,
    hints: &HintSet,
    default: &scope_opt::RuleConfig,
    executor: &E,
) -> Result<ViewRow, ViewBuildError> {
    let hinted = hints.lookup(job.template).is_some();
    let config = hints.config_for(job.template, default);
    // Only recurring jobs are ever steered; an ad-hoc job's compile leaves
    // nothing behind for treatment pricing (see `Optimizer::compile_unsteered`).
    let compile = |config: &scope_opt::RuleConfig| {
        if job.recurring {
            optimizer.compile(&job.plan, config)
        } else {
            optimizer.compile_unsteered(&job.plan, config)
        }
    };
    let (compiled, hint_applied) = match compile(&config) {
        Ok(c) => (c, hinted),
        Err(CompileError::RuleInstability { .. }) if hinted => match compile(default) {
            Ok(c) => (c, false),
            Err(error) => {
                return Err(ViewBuildError {
                    job_id: job.job_id,
                    job_name: job.name.clone(),
                    template: job.template,
                    error,
                })
            }
        },
        Err(error) => {
            return Err(ViewBuildError {
                job_id: job.job_id,
                job_name: job.name.clone(),
                template: job.template,
                error,
            })
        }
    };
    let run_seed = production_run_seed(job.day);
    let metrics = executor.execute(&compiled.physical, job.job_seed, run_seed);
    let features = Table1Features::aggregate(&job.name, &job.plan, compiled.est_cost, &metrics);
    Ok(ViewRow {
        job_id: job.job_id,
        day: job.day,
        template: job.template,
        recurring: job.recurring,
        job_seed: job.job_seed,
        plan: job.plan.clone(),
        signature: compiled.signature,
        est_cost: compiled.est_cost,
        metrics,
        features,
        hint_applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Workload, WorkloadConfig};
    use scope_opt::Optimizer;
    use scope_runtime::Cluster;

    fn small_day() -> Vec<ViewRow> {
        let w = Workload::new(WorkloadConfig {
            seed: 11,
            num_templates: 8,
            adhoc_per_day: 2,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let jobs = w.jobs_for_day(0);
        build_view(
            &jobs,
            &Optimizer::default(),
            &HintSet::new(),
            &Cluster::default(),
        )
        .expect("generated workloads always compile on the default path")
    }

    #[test]
    fn view_has_one_row_per_job() {
        let rows = small_day();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.est_cost > 0.0);
            assert!(r.metrics.pn_hours > 0.0);
            assert!(!r.signature.is_empty());
            assert!(!r.hint_applied);
        }
    }

    #[test]
    fn features_follow_table1_semantics() {
        let rows = small_day();
        for r in &rows {
            let f = &r.features;
            assert_eq!(
                f.latency, r.metrics.latency_sec,
                "J-level min = the job value"
            );
            assert_eq!(f.pn_hours, r.metrics.pn_hours);
            assert_eq!(f.total_vertices, r.metrics.vertices as f64);
            assert!(f.estimated_cardinalities > 0.0);
            assert!(f.avg_row_length > 0.0);
            assert!(!f.normalized_name.is_empty());
            // Normalization strips instance numbers.
            assert!(!f.normalized_name.chars().any(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn multi_output_jobs_sum_per_tree_features() {
        // SharedMultiOutput templates have 2 output trees; their estimated
        // cardinalities must double-count the shared scan (per-tree sums).
        let rows = small_day();
        let multi = rows.iter().find(|r| r.plan.outputs().len() > 1);
        if let Some(r) = multi {
            let single_tree_card: f64 = r
                .plan
                .topo_order()
                .iter()
                .filter_map(|id| match &r.plan.node(*id).op {
                    LogicalOp::Extract { table } => Some(table.rows.estimated),
                    _ => None,
                })
                .sum();
            assert!(r.features.estimated_cardinalities >= single_tree_card);
        }
    }

    #[test]
    fn hints_change_view_rows() {
        use scope_opt::{Hint, RuleFlip, RuleId};
        let w = Workload::new(WorkloadConfig {
            seed: 11,
            num_templates: 8,
            adhoc_per_day: 0,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let jobs = w.jobs_for_day(0);
        let optimizer = Optimizer::default();
        let cluster = Cluster::default();
        let base = build_view(&jobs, &optimizer, &HintSet::new(), &cluster).unwrap();
        // Hint: flip an off-by-default transform on for the first template.
        let mut hints = HintSet::new();
        hints.insert(Hint {
            template: jobs[0].template,
            flip: RuleFlip {
                rule: RuleId(21),
                enable: true,
            },
        });
        let hinted = build_view(&jobs, &optimizer, &hints, &cluster).unwrap();
        let changed = base
            .iter()
            .zip(hinted.iter())
            .any(|(a, b)| a.template == jobs[0].template && b.hint_applied);
        assert!(changed, "hinted template must be marked");
    }

    #[test]
    fn default_path_compile_failure_is_a_typed_error() {
        use scope_ir::logical::LogicalPlan;

        // A structurally broken plan (no outputs) fails optimizer
        // validation on the default path — build_view must surface it as a
        // ViewBuildError naming the job, not panic.
        let w = Workload::new(WorkloadConfig {
            seed: 11,
            num_templates: 2,
            adhoc_per_day: 0,
            max_instances_per_day: 1,
            ..WorkloadConfig::default()
        });
        let mut jobs = w.jobs_for_day(0);
        jobs[0].plan = Arc::new(LogicalPlan::new());
        jobs[0].name = "broken_job".to_string();
        let err = build_view(
            &jobs,
            &Optimizer::default(),
            &HintSet::new(),
            &Cluster::default(),
        )
        .expect_err("an invalid plan must fail view building");
        assert_eq!(err.job_id, jobs[0].job_id);
        assert_eq!(err.job_name, "broken_job");
        assert!(matches!(err.error, CompileError::Invalid(_)));
        let msg = err.to_string();
        assert!(msg.contains("broken_job"), "error names the job: {msg}");
    }

    #[test]
    fn build_view_is_identical_through_a_caching_compiler() {
        use scope_opt::CacheConfig;

        let w = Workload::new(WorkloadConfig {
            seed: 11,
            num_templates: 6,
            adhoc_per_day: 1,
            max_instances_per_day: 1,
            literals: crate::LiteralPolicy::Sticky {
                redraw_every_days: 0,
            },
        });
        let cluster = Cluster::default();
        let cached = Optimizer::new(Optimizer::default(), CacheConfig::default());
        let mut direct_rows = Vec::new();
        let mut cached_rows = Vec::new();
        for day in 0..2u32 {
            let jobs = w.jobs_for_day(day);
            direct_rows.extend(
                build_view(&jobs, &Optimizer::default(), &HintSet::new(), &cluster).unwrap(),
            );
            cached_rows.extend(build_view(&jobs, &cached, &HintSet::new(), &cluster).unwrap());
        }
        for (a, b) in direct_rows.iter().zip(cached_rows.iter()) {
            assert_eq!(a.signature, b.signature);
            assert_eq!(a.est_cost, b.est_cost);
            assert_eq!(a.metrics, b.metrics, "cache must be invisible");
        }
        // Sticky literals: day 1 recompiles the very plans day 0 inserted.
        let stats = cached.stats();
        assert!(
            stats.hits > 0,
            "sticky recurring plans must hit across days: {stats:?}"
        );
    }

    #[test]
    fn build_view_is_identical_through_a_caching_executor() {
        use scope_runtime::{CachingExecutor, ExecCacheConfig};

        let w = Workload::new(WorkloadConfig {
            seed: 11,
            num_templates: 6,
            adhoc_per_day: 1,
            max_instances_per_day: 1,
            literals: crate::LiteralPolicy::Sticky {
                redraw_every_days: 0,
            },
        });
        let optimizer = Optimizer::default();
        let cluster = Cluster::default();
        let cached = CachingExecutor::with_config(cluster.clone(), ExecCacheConfig::default());
        for day in 0..2u32 {
            let jobs = w.jobs_for_day(day);
            let direct = build_view(&jobs, &optimizer, &HintSet::new(), &cluster).unwrap();
            let via_cache = build_view(&jobs, &optimizer, &HintSet::new(), &cached).unwrap();
            for (a, b) in direct.iter().zip(via_cache.iter()) {
                assert_eq!(a.metrics, b.metrics, "the execution cache is invisible");
                assert_eq!(a.features, b.features);
            }
        }
        // Sticky literals: day 1 re-executes day-0 plans (fresh run seeds),
        // so the stage-graph memo is hot even though full results are not.
        let stats = cached.stats();
        assert!(
            stats.graphs.hits > 0,
            "sticky recurring plans must reuse memoized stage graphs: {stats:?}"
        );
    }
}
