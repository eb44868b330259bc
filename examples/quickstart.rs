//! Quickstart: write a SCOPE-like script, compile it, inspect the plan, the
//! rule signature and the job span, then steer it with a single rule flip.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qo_advisor::FeatureCache;
use scope_ir::display::{explain_logical, explain_physical};
use scope_ir::stats::DualStats;
use scope_lang::{bind_script, Catalog, TableInfo};
use scope_opt::{
    compute_span, CacheConfig, DeltaConfig, Hint, HintSet, Optimizer, RuleConfig, RuleFlip,
};
use scope_runtime::{CachingExecutor, Cluster, ExecCacheConfig, Executor};

const SCRIPT: &str = r#"
    // Daily revenue rollup: filter the fact table, join the dimension,
    // aggregate by region, and keep the top spenders on the side.
    sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
    users = EXTRACT user:int, region:string FROM "store/users";
    big   = SELECT user, spend FROM sales WHERE spend > 100;
    j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
    rpt   = SELECT region, SUM(spend) AS total, COUNT(*) AS n FROM j GROUP BY region;
    hot   = SELECT TOP 100 user, spend FROM big ORDER BY spend DESC;
    OUTPUT rpt TO "out/by_region";
    OUTPUT hot TO "out/top_spenders";
"#;

fn main() {
    // 1. Bind the script against a catalog (stale estimates included).
    let mut catalog = Catalog::default();
    catalog.register(
        "store/sales",
        TableInfo {
            rows: DualStats::new(3.0e8, 2.0e8),
        },
    );
    catalog.register(
        "store/users",
        TableInfo {
            rows: DualStats::exact(5.0e6),
        },
    );
    let plan = bind_script(SCRIPT, &catalog).expect("script binds");
    println!("== logical plan (a DAG: two outputs share the filtered scan) ==");
    println!("{}", explain_logical(&plan));

    // 2. Compile with the default rule configuration.
    let optimizer = Optimizer::default();
    let default = optimizer.default_config();
    let compiled = optimizer
        .compile(&plan, &default)
        .expect("default compiles");
    println!("== physical plan ==");
    println!("{}", explain_physical(&compiled.physical));
    println!("estimated cost: {:.3e}", compiled.est_cost);
    println!(
        "rule signature ({} rules): {:?}",
        compiled.signature.len(),
        compiled
            .signature
            .iter()
            .map(|r| optimizer.rules().rule(r).name.clone())
            .collect::<Vec<_>>()
    );

    // 3. Compute the job span: every rule whose flip can change this plan.
    let span = compute_span(&optimizer, &plan, 6).expect("span");
    println!("\njob span ({} flippable rules):", span.len());
    for rule in span.span.iter() {
        let def = optimizer.rules().rule(rule);
        println!("  {rule}  {:24} [{}]", def.name, def.category.name());
    }

    // 3b. The contextual bandit describes this span to its model as a
    // co-occurrence feature block (pairs + triples of span rules, §3.2/§6),
    // and its actions as one no-op plus one flip per span rule. Both are
    // template-stable, so the daily pipeline memoizes them in a span-feature
    // cache — the features are byte-identical to building them afresh with
    // `span_block` and `action_slate`.
    let cache = FeatureCache::default();
    let features = cache.span_features_for(plan.template_id(), &span, optimizer.rules(), 6);
    // A recurrence of the template hits the cached entry.
    let again = cache.span_features_for(plan.template_id(), &span, optimizer.rules(), 6);
    assert_eq!(features.block.items(), again.block.items());
    assert_eq!(cache.stats().hits, 1);
    println!(
        "\nspan co-occurrence block: {} features, {} actions (span-feature cache on)",
        features.block.len(),
        features.actions.len()
    );

    // 4. Price every span flip as ONE treatment slate against the default
    // configuration's shared base memo (delta compilation: byte-identical
    // to compiling each treatment from scratch, only faster).
    let steering = Optimizer::new(optimizer.clone(), CacheConfig::default())
        .with_delta(DeltaConfig::default());
    let flips: Vec<RuleFlip> = span
        .span
        .iter()
        .map(|rule| RuleFlip {
            rule,
            enable: !default.enabled(rule),
        })
        .collect();
    let treatments: Vec<RuleConfig> = flips.iter().map(|f| default.with_flip(*f)).collect();
    println!("\nsingle-flip recompilations (one delta-compiled slate):");
    let mut best: Option<(RuleFlip, f64)> = None;
    for (flip, result) in flips
        .iter()
        .zip(steering.compile_slate(&plan, &default, &treatments))
    {
        match result {
            Ok(c) => {
                let delta = c.est_cost / compiled.est_cost - 1.0;
                println!("  {flip}: est cost {:+.2}%", delta * 100.0);
                if delta < best.map_or(0.0, |(_, d)| d) {
                    best = Some((*flip, delta));
                }
            }
            Err(e) => println!("  {flip}: {e}"),
        }
    }
    let dstats = steering.delta_stats();
    println!(
        "slate resolution: {} pruned, {} delta, {} full ({} base build)",
        dstats.pruned, dstats.delta, dstats.full, dstats.base_builds
    );

    // 5. Execute default vs steered on the simulated cluster, through the
    // Executor trait and its stage-graph memo (bit-identical to the plain
    // `Cluster`).
    let executor = CachingExecutor::with_config(Cluster::default(), ExecCacheConfig::default());
    let base = executor.execute(&compiled.physical, 42, 1);
    println!(
        "\ndefault run:  latency {:>7.1}s  PNhours {:>7.3}  vertices {:>4}  read {:.2e} B",
        base.latency_sec, base.pn_hours, base.vertices, base.data_read
    );
    if let Some((flip, delta)) = best {
        let steered = optimizer.compile(&plan, &default.with_flip(flip)).unwrap();
        let m = executor.execute(&steered.physical, 42, 1);
        println!(
            "steered run:  latency {:>7.1}s  PNhours {:>7.3}  vertices {:>4}  read {:.2e} B",
            m.latency_sec, m.pn_hours, m.vertices, m.data_read
        );
        println!(
            "best flip {flip} promised {:+.1}% est cost; delivered {:+.1}% PNhours",
            delta * 100.0,
            (m.pn_hours / base.pn_hours - 1.0) * 100.0
        );

        // 6. Package the flip as a SIS-style hint: future compilations of
        // this template pick it up automatically.
        let hints = HintSet::from_hints([Hint {
            template: plan.template_id(),
            flip,
        }]);
        let cfg = hints.config_for(plan.template_id(), &default);
        let rehinted = optimizer.compile(&plan, &cfg).unwrap();
        assert_eq!(rehinted.est_cost, steered.est_cost);
        println!(
            "hint stored for template {} and applied on recompile",
            plan.template_id()
        );
    } else {
        println!("no estimated-cost-improving flip in the span for this job");
    }
}
