//! The production view of one day, for one tenant or many: the single day
//! loop both [`crate::ProductionSim::advance_day`] (one tenant, width 1) and
//! [`crate::Fleet::advance_day`] (every tenant, the stream's width) build
//! their views through.
//!
//! Every tenant's jobs are laid end to end — tenant-major, job order within
//! a tenant — and mapped by one [`par_map`], one clocked `build_view_row` per
//! job. `par_map` returns results in input order, so splitting them back by
//! each tenant's job count gives every tenant the view a serial
//! `scope_workload::build_view` would have built, byte for byte
//! (`build_view_row` is pure per job), with that tenant's rows contiguous.

use crate::pipeline::PipelineError;
use crate::simulation::ProductionSim;
use crate::stages::par_map;
use scope_ir::LatencyHistogram;
use scope_workload::{build_view_row, JobInstance, ViewBuildError, ViewRow};

/// One tenant's day view: its rows in job order, and the summed
/// steering-latency nanoseconds of those rows.
pub(crate) type TenantView = (Vec<ViewRow>, u64);

/// Every tenant's rows with their summed nanoseconds, in tenant order, and
/// the histogram of every row's steering latency.
type Views<R> = (Vec<(Vec<R>, u64)>, LatencyHistogram);

/// Build `sims[t]`'s view of `jobs[t]` for every tenant `t` on up to
/// `workers` threads (`0` = all cores). Each tenant's rows are steered by its
/// live hints over its default configuration, as read before the first row.
/// Returns the views in tenant order and the histogram of every row's
/// steering latency.
///
/// # Errors
///
/// The first failed row in input order — the lowest `(tenant, job)` — as
/// [`PipelineError::View`], whatever order the workers ran in; a panicking
/// row is [`PipelineError::Invariant`].
pub(crate) fn views(
    sims: &[&ProductionSim],
    jobs: &[Vec<JobInstance>],
    workers: usize,
) -> Result<Views<ViewRow>, PipelineError> {
    let steering: Vec<_> = sims
        .iter()
        .map(|sim| {
            let default = sim.advisor.caching_optimizer().default_config();
            (sim.advisor.sis().snapshot(), default)
        })
        .collect();
    clocked_rows(jobs, workers, |tenant, job| {
        let (sim, (hints, default)) = (sims[tenant], &steering[tenant]);
        let optimizer = sim.advisor.caching_optimizer();
        build_view_row(job, optimizer, hints, default, sim.prod_executor())
    })
}

/// [`views`]' body, generic over the row: map `row` over every tenant's jobs
/// laid end to end on one [`par_map`], clock each call, and split the
/// in-order results back per tenant by length.
fn clocked_rows<J: Sync, R: Send>(
    jobs: &[Vec<J>],
    workers: usize,
    row: impl Fn(usize, &J) -> Result<R, ViewBuildError> + Sync,
) -> Result<Views<R>, PipelineError> {
    let laid_out: Vec<(usize, &J)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(tenant, jobs)| jobs.iter().map(move |job| (tenant, job)))
        .collect();
    let mut rows = par_map(workers, laid_out, |(tenant, job)| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-job steering-latency clock; telemetry only"
        )]
        let t = std::time::Instant::now();
        let row = row(tenant, job);
        (t.elapsed().as_nanos() as u64, row)
    })
    .map_err(|_| PipelineError::Invariant("view-build worker panicked"))?
    .into_iter();
    let mut latency = LatencyHistogram::new();
    let mut views = Vec::with_capacity(jobs.len());
    for tenant_jobs in jobs {
        let (mut view, mut view_ns) = (Vec::with_capacity(tenant_jobs.len()), 0);
        for (ns, row) in rows.by_ref().take(tenant_jobs.len()) {
            latency.record(ns);
            view_ns += ns;
            view.push(row?);
        }
        views.push((view, view_ns));
    }
    Ok((views, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_ir::{JobId, TemplateId};

    /// Each job is its own `(tenant, index)` tag.
    fn tagged(lens: &[usize]) -> Vec<Vec<(usize, usize)>> {
        lens.iter()
            .enumerate()
            .map(|(t, &len)| (0..len).map(|i| (t, i)).collect())
            .collect()
    }

    fn planted(tag: (usize, usize)) -> ViewBuildError {
        ViewBuildError {
            job_id: JobId(0),
            job_name: format!("t{}-j{}", tag.0, tag.1),
            template: TemplateId(0),
            error: scope_opt::CompileError::Invalid("planted".into()),
        }
    }

    #[test]
    fn rows_split_back_per_tenant_in_job_order() {
        for workers in [1, 2, 8] {
            let (views, latency) = clocked_rows(&tagged(&[3, 0, 1, 2]), workers, |t, &tag| {
                assert_eq!(t, tag.0, "the tenant index is the job's own");
                Ok(tag)
            })
            .unwrap();
            let rows: Vec<_> = views.iter().map(|(view, _)| view.clone()).collect();
            let expected = tagged(&[3, 0, 1, 2]);
            assert_eq!(rows, expected, "workers={workers}");
            assert_eq!(latency.count(), 6);
            assert_eq!(views[1].1, 0, "a tenant with no jobs has no build time");

            for lens in [&[][..], &[0, 0]] {
                let (views, latency) =
                    clocked_rows(&tagged(lens), workers, |_, &tag| Ok(tag)).unwrap();
                assert_eq!(views, vec![(vec![], 0); lens.len()], "workers={workers}");
                assert_eq!(latency.count(), 0);
            }
        }
    }

    #[test]
    fn the_lowest_failing_tenant_and_job_wins() {
        let failing = [(0, 2), (1, 0), (1, 1)];
        for workers in [1, 2, 8] {
            let rows = clocked_rows(&tagged(&[3, 2]), workers, |_, &tag| {
                if failing.contains(&tag) {
                    Err(planted(tag))
                } else {
                    Ok(tag)
                }
            });
            match rows {
                Err(PipelineError::View(e)) => assert_eq!(e.job_name, "t0-j2"),
                other => panic!(
                    "expected the (0, 2) view error, got {:?}",
                    other.map(|r| r.0)
                ),
            }
        }
    }

    #[test]
    fn a_panicking_row_is_an_invariant_error() {
        for workers in [1, 2, 8] {
            let rows = clocked_rows(&tagged(&[32, 32]), workers, |_, &tag| {
                assert_ne!(tag, (0, 0), "planted panic");
                Ok(tag)
            });
            assert_eq!(
                rows.map(|r| r.0),
                Err(PipelineError::Invariant("view-build worker panicked")),
                "workers={workers}"
            );
        }
    }
}
