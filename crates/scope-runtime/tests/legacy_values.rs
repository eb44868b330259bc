//! Legacy-value pins for the execution sampler.
//!
//! The vectorized sampling path in `executor::execute_stages` must preserve
//! the *exact* values the original per-vertex sampling loop produced — not
//! just the distribution. The strings below were captured from the
//! pre-vectorization implementation (`{:?}` on `f64` prints the shortest
//! round-tripping decimal, so string equality is bit equality), across the
//! three cluster models and several `(job_seed, run_seed)` pairs: any change
//! to draw order, transform arithmetic, or the worst-vertex max-reduction
//! shows up as a byte-level diff here.

use scope_ir::stats::DualStats;
use scope_lang::{bind_script, Catalog, TableInfo};
use scope_runtime::{execute, Cluster};

const SCRIPT: &str = r#"
    sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
    users = EXTRACT user:int, region:string FROM "store/users";
    j     = SELECT * FROM sales AS s JOIN users AS u ON s.user == u.user;
    agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
    OUTPUT agg TO "out/by_region";
"#;

fn physical(rows: f64) -> scope_ir::physical::PhysicalPlan {
    let mut catalog = Catalog::default();
    catalog.register(
        "store/sales",
        TableInfo {
            rows: DualStats::exact(rows),
        },
    );
    let plan = bind_script(SCRIPT, &catalog).unwrap();
    let opt = scope_opt::Optimizer::default();
    std::sync::Arc::unwrap_or_clone(opt.compile(&plan, &opt.default_config()).unwrap().physical)
}

/// `(cluster, input rows, job_seed, run_seed) -> Debug rendering` captured
/// from the pre-vectorization sampler.
const PINNED: &[(&str, f64, u64, u64, &str)] = &[
    ("default", 1e6, 1, 1, "ExecutionMetrics { latency_sec: 440.6349538652393, pn_hours: 0.2601148225149905, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 355.1593916796884, io_sec: 581.2539693742774 }"),
    ("default", 1e6, 7, 3, "ExecutionMetrics { latency_sec: 421.82444837182896, pn_hours: 0.2539213303438619, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 354.66868417445204, io_sec: 559.4481050634507 }"),
    ("default", 1e6, 42, 43981, "ExecutionMetrics { latency_sec: 437.76872800911485, pn_hours: 0.26653678775435125, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 354.1065762660881, io_sec: 605.4258596495765 }"),
    ("default", 3e7, 1, 1, "ExecutionMetrics { latency_sec: 7253.777849933368, pn_hours: 5.78661631199134, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3434.262496707339, io_sec: 17397.556226461485 }"),
    ("default", 3e7, 7, 3, "ExecutionMetrics { latency_sec: 8003.167188741909, pn_hours: 5.5716634873896655, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3313.105291084834, io_sec: 16744.88326351796 }"),
    ("default", 3e7, 42, 43981, "ExecutionMetrics { latency_sec: 7425.096452290587, pn_hours: 5.900924465322252, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3122.2811848549336, io_sec: 18121.046890305173 }"),
    ("default", 1e9, 1, 1, "ExecutionMetrics { latency_sec: 91642.30458989277, pn_hours: 189.31896648469038, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 101739.6401957863, io_sec: 579808.6391490991 }"),
    ("default", 1e9, 7, 3, "ExecutionMetrics { latency_sec: 134223.35540003885, pn_hours: 182.91978896221855, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 100454.24355982577, io_sec: 558056.9967041609 }"),
    ("default", 1e9, 42, 43981, "ExecutionMetrics { latency_sec: 107416.48910043424, pn_hours: 194.57200286830627, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 96538.7860628544, io_sec: 603920.4242630481 }"),
    ("preprod", 1e6, 1, 1, "ExecutionMetrics { latency_sec: 498.455040800991, pn_hours: 0.3059439777416734, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 376.05770395021244, io_sec: 725.340615919812 }"),
    ("preprod", 1e6, 7, 3, "ExecutionMetrics { latency_sec: 595.4408778595648, pn_hours: 0.3002128038458587, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 381.8868647866784, io_sec: 698.879229058413 }"),
    ("preprod", 1e6, 42, 43981, "ExecutionMetrics { latency_sec: 484.57780049922906, pn_hours: 0.3172291117906017, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 365.14516917967876, io_sec: 776.8796332664873 }"),
    ("preprod", 3e7, 1, 1, "ExecutionMetrics { latency_sec: 8901.150256057845, pn_hours: 5.9918853317272065, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3597.036851132075, io_sec: 17973.75034308587 }"),
    ("preprod", 3e7, 7, 3, "ExecutionMetrics { latency_sec: 8932.821277239524, pn_hours: 5.616106710538781, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3370.162342619874, io_sec: 16847.821815319738 }"),
    ("preprod", 3e7, 42, 43981, "ExecutionMetrics { latency_sec: 8353.891253042277, pn_hours: 6.180952192129767, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 2994.6265759366947, io_sec: 19256.801315730467 }"),
    ("preprod", 1e9, 1, 1, "ExecutionMetrics { latency_sec: 137524.60483868798, pn_hours: 195.86048088455618, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 106086.26134477419, io_sec: 599011.4698396281 }"),
    ("preprod", 1e9, 7, 3, "ExecutionMetrics { latency_sec: 166874.04214750876, pn_hours: 184.29976635178338, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 102001.21880171838, io_sec: 561477.9400647017 }"),
    ("preprod", 1e9, 42, 43981, "ExecutionMetrics { latency_sec: 145589.999122678, pn_hours: 203.95559813157402, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 92468.42281326852, io_sec: 641771.730460398 }"),
    ("determ", 1e6, 1, 1, "ExecutionMetrics { latency_sec: 383.59377837764697, pn_hours: 0.25300150451627146, vertices: 259, tokens: 256, data_read: 23873824103.388123, data_written: 25263477327.485313, max_memory: 23536495397.09048, avg_memory: 5885560402.946759, cpu_sec: 356.2737086311296, io_sec: 554.5317076274476 }"),
    ("determ", 3e7, 7, 3, "ExecutionMetrics { latency_sec: 3978.995381612302, pn_hours: 5.502348406223585, vertices: 260, tokens: 256, data_read: 714235416449.8505, data_written: 756430083039.8129, max_memory: 235364953970.90488, avg_memory: 78512446803.93385, cpu_sec: 3210.72405990874, io_sec: 16597.730202496165 }"),
    ("determ", 1e9, 42, 43981, "ExecutionMetrics { latency_sec: 31986.01374610126, pn_hours: 181.06648691977844, vertices: 331, tokens: 256, data_read: 23798668982920.055, data_written: 25213290753470.164, max_memory: 318060748609.3309, avg_memory: 107935654435.2954, cpu_sec: 98686.52866362465, io_sec: 553152.8242475777 }"),
];

fn cluster_by_name(name: &str) -> Cluster {
    match name {
        "default" => Cluster::default(),
        "preprod" => Cluster::preproduction(),
        "determ" => Cluster::deterministic(),
        other => panic!("unknown cluster {other}"),
    }
}

#[test]
fn sampler_reproduces_pre_vectorization_values_bit_for_bit() {
    for &(cname, rows, job_seed, run_seed, expected) in PINNED {
        let plan = physical(rows);
        let m = execute(&plan, &cluster_by_name(cname), job_seed, run_seed);
        assert_eq!(
            format!("{m:?}"),
            expected,
            "metrics diverged from the pre-vectorization sampler for \
             cluster={cname} rows={rows:e} job_seed={job_seed} run_seed={run_seed}"
        );
    }
}
