//! The paper's headline scenario end to end: a recurring production
//! workload, a validation-model bootstrap, and the QO-Advisor daily loop
//! publishing hints that steer future occurrences — with counterfactual
//! default runs quantifying the impact (Table 2 style).
//!
//! ```text
//! cargo run --release --example steered_workload
//! ```

use qo_advisor::{aggregate_impact, PipelineConfig, ProductionSim};
use scope_workload::WorkloadConfig;

fn main() {
    let workload = WorkloadConfig {
        seed: 7_2022,
        num_templates: 40,
        adhoc_per_day: 10,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    };
    let mut sim = ProductionSim::new(workload, PipelineConfig::default());

    println!("bootstrapping the validation model from random flights...");
    let samples = sim
        .bootstrap_validation_model(5, 24)
        .expect("generated workloads compile on the default path");
    let model = sim.advisor.validation_model().expect("model fitted");
    println!(
        "  {} samples  ->  pn_delta = {:+.3} {:+.3}*data_read_delta {:+.3}*data_written_delta\n",
        samples.len(),
        model.intercept,
        model.w_read,
        model.w_written
    );

    println!(
        "{:>4} {:>6} {:>6} {:>7} {:>8} {:>7} {:>6} {:>6} {:>8}",
        "day", "jobs", "spans", "lower", "flighted", "valid", "hints", "live", "steered"
    );
    let mut all = Vec::new();
    for _ in 0..15 {
        let out = sim
            .advance_day()
            .expect("generated workloads compile on the default path");
        let r = &out.report;
        println!(
            "{:>4} {:>6} {:>6} {:>7} {:>8} {:>7} {:>6} {:>6} {:>8}",
            r.day,
            r.jobs_total,
            r.jobs_with_span,
            r.lower_cost,
            r.flighted,
            r.validated,
            r.hints_published,
            sim.advisor.sis().len(),
            out.comparisons.len(),
        );
        all.extend(out.comparisons);
    }

    let agg = aggregate_impact(&all);
    println!(
        "\n== aggregate impact on the {} hint-matched jobs (Table 2 analogue) ==",
        agg.jobs
    );
    println!("  PNhours:  {:+.1}%   (paper: -14.3%)", agg.pn_hours_pct);
    println!("  Latency:  {:+.1}%   (paper:  -8.9%)", agg.latency_pct);
    println!("  Vertices: {:+.1}%   (paper: -52.8%)", agg.vertices_pct);

    let improved = all.iter().filter(|c| c.pn_delta() < 0.0).count();
    if !all.is_empty() {
        println!(
            "  {} / {} steered jobs improved PNhours; worst case {:+.1}%",
            improved,
            all.len(),
            all.iter().map(|c| c.pn_delta()).fold(f64::MIN, f64::max) * 100.0
        );
    }
}
