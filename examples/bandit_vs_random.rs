//! Table-3 style comparison: after the contextual bandit has trained through
//! the daily loop, evaluate its single-day recommendations against the
//! uniform-at-random baseline on identical jobs.
//!
//! ```text
//! cargo run --release --example bandit_vs_random
//! ```

use flighting::{FlightBudget, FlightingService};
use qo_advisor::{PipelineConfig, QoAdvisor, RecommendStrategy};
use scope_runtime::Cluster;
use scope_workload::{build_view, WorkloadConfig};

fn main() {
    let workload = WorkloadConfig {
        // qo-lint: allow(seed-salt) — top-level demo seed, not a derivation salt
        seed: 31_337,
        num_templates: 40,
        adhoc_per_day: 8,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    };
    let mut sim = qo_advisor::ProductionSim::new(workload, PipelineConfig::default());
    sim.bootstrap_validation_model(3, 16)
        .expect("generated workloads compile on the default path");
    println!(
        "training the contextual bandit through {} daily loops...",
        20
    );
    for _ in 0..20 {
        sim.advance_day()
            .expect("generated workloads compile on the default path");
    }
    println!(
        "  CB absorbed {} reward events\n",
        sim.advisor.personalizer().events()
    );

    // Evaluation day: same jobs, no hints, both policies.
    let day = sim.day;
    let jobs = sim.workload.jobs_for_day(day);
    let view = build_view(
        &jobs,
        sim.advisor.caching_optimizer(),
        &Default::default(),
        sim.prod_executor(),
    )
    .expect("generated workloads compile on the default path");
    let cb_report = sim.advisor.run_day(&view, day).expect("pipeline day runs");

    let mut random = QoAdvisor::new(
        FlightingService::new(Cluster::preproduction(), FlightBudget::default()),
        PipelineConfig {
            strategy: RecommendStrategy::UniformRandom,
            ..PipelineConfig::default()
        },
    );
    let rd_report = random.run_day(&view, day).expect("pipeline day runs");

    println!("{:>18} {:>10} {:>10}", "", "Random", "CB");
    let row = |name: &str, a: usize, b: usize| println!("{name:>18} {a:>10} {b:>10}");
    row("lower cost", rd_report.lower_cost, cb_report.lower_cost);
    row("equal cost", rd_report.equal_cost, cb_report.equal_cost);
    row("higher cost", rd_report.higher_cost, cb_report.higher_cost);
    row(
        "recompile fail",
        rd_report.recompile_failures,
        cb_report.recompile_failures,
    );
    row("no-op chosen", rd_report.noop_chosen, cb_report.noop_chosen);
    println!(
        "{:>18} {:>10.3e} {:>10.3e}",
        "total est cost", rd_report.total_chosen_cost, cb_report.total_chosen_cost
    );
    println!(
        "\n(paper Table 3: Random 10.6% lower / 36.0% higher / 18.0% fail;\n \
          CB 34.5% lower / 19.5% higher / 13.9% fail; total cost 1.7e11 -> 1.0e9)"
    );
}
