//! `Serialize::structural_hash` — the streaming walk every fingerprint uses —
//! must return exactly what the reference walk `hash_value` returns for the
//! materialized `to_value()` tree: for every shape the derive macro emits,
//! every primitive and container impl, and every real plan. The last test
//! pins literal fingerprint values, so an accidental re-key fails here
//! instead of quietly cold-starting every cache. CI runs this file in
//! release too: nothing in it may lean on `debug_assert`.

use scope_ir::ids::hash_value;
use scope_lang::{bind_script, Catalog};
use scope_opt::Optimizer;
use scope_workload::{Workload, WorkloadConfig};
use serde::Serialize;
use std::sync::Arc;

const SALTS: [u64; 3] = [0, 1, 0x9e37_79b9_7f4a_7c15];

#[track_caller]
fn assert_streams_like_the_tree<T: Serialize + ?Sized>(x: &T) {
    for salt in SALTS {
        assert_eq!(x.structural_hash(salt), hash_value(&x.to_value(), salt));
    }
}

#[derive(Serialize)]
struct Unit;
#[derive(Serialize)]
struct Newtype(u32);
#[derive(Serialize)]
struct Empty();
#[derive(Serialize)]
struct Pair(i64, String);
#[derive(Serialize)]
struct Named {
    id: u64,
    label: String,
    inner: Pair,
    tags: Vec<Newtype>,
    maybe: Option<f64>,
}
#[derive(Serialize)]
enum Shape {
    Dot,
    Wrapped(Named),
    Segment(i8, u16),
    Rect { w: f32, h: f64 },
}

/// Falls back to the trait's default body, like any hand-written impl that
/// does not override the streaming walk.
struct Unconverted(u8);
impl Serialize for Unconverted {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(vec![self.0.to_value(), serde::Value::Null])
    }
}

fn named() -> Named {
    Named {
        id: u64::MAX,
        label: "λ — non-ascii".to_string(),
        inner: Pair(i64::MIN, String::new()),
        tags: vec![Newtype(0), Newtype(7)],
        maybe: None,
    }
}

#[test]
fn every_derive_shape_streams_like_the_tree() {
    assert_streams_like_the_tree(&Unit);
    assert_streams_like_the_tree(&Newtype(42));
    assert_streams_like_the_tree(&Empty());
    assert_streams_like_the_tree(&Pair(-3, "x".to_string()));
    assert_streams_like_the_tree(&named());
    assert_streams_like_the_tree(&Shape::Dot);
    assert_streams_like_the_tree(&Shape::Wrapped(named()));
    assert_streams_like_the_tree(&Shape::Segment(-1, 65_535));
    assert_streams_like_the_tree(&Shape::Rect { w: 1.5, h: -2.25 });
    assert_streams_like_the_tree(&Unconverted(9));
    // Distinct shapes over the same leaves stay distinct.
    assert_ne!(Unit.structural_hash(0), Empty().structural_hash(0));
    assert_ne!(
        Shape::Segment(1, 2).structural_hash(0),
        (1i8, 2u16).structural_hash(0)
    );
}

#[test]
fn every_primitive_and_container_streams_like_the_tree() {
    assert_streams_like_the_tree(&u8::MAX);
    assert_streams_like_the_tree(&u16::MAX);
    assert_streams_like_the_tree(&u32::MAX);
    assert_streams_like_the_tree(&u64::MAX);
    assert_streams_like_the_tree(&usize::MAX);
    assert_streams_like_the_tree(&i8::MIN);
    assert_streams_like_the_tree(&i16::MIN);
    assert_streams_like_the_tree(&i32::MIN);
    assert_streams_like_the_tree(&i64::MIN);
    assert_streams_like_the_tree(&isize::MIN);
    assert_streams_like_the_tree(&true);
    assert_streams_like_the_tree(&false);
    for f in [0.0f64, -0.0, 1.0e-300, f64::INFINITY, f64::NAN, -f64::NAN] {
        assert_streams_like_the_tree(&f);
    }
    for f in [0.1f32, -0.0, f32::MAX, f32::NAN] {
        assert_streams_like_the_tree(&f);
    }
    assert_ne!(0.0f64.structural_hash(0), (-0.0f64).structural_hash(0));
    assert_streams_like_the_tree(&String::from("text"));
    assert_streams_like_the_tree("borrowed");
    assert_streams_like_the_tree(&Arc::<str>::from("shared"));
    assert_streams_like_the_tree(&Some(3u8));
    assert_streams_like_the_tree(&None::<u8>);
    assert_streams_like_the_tree(&Some(None::<bool>));
    assert_streams_like_the_tree(&Vec::<u64>::new());
    assert_streams_like_the_tree(&vec![vec![1u8], vec![], vec![2, 3]]);
    assert_streams_like_the_tree(&Box::new(5i32));
    assert_streams_like_the_tree(&&7u64);
    assert_streams_like_the_tree(&[1.0f64, 2.0, 3.0]);
    assert_streams_like_the_tree(&[0u8; 0]);
    assert_streams_like_the_tree(&(1u8,));
    assert_streams_like_the_tree(&(1u8, "two".to_string()));
    assert_streams_like_the_tree(&(1u8, -2i16, 3.0f32));
    assert_streams_like_the_tree(&(1u8, -2i16, 3.0f32, Some(false)));
}

/// The bench corpus (`experiments`' one workload: seed 2022, 60 templates),
/// day 0.
fn corpus() -> Vec<scope_workload::JobInstance> {
    Workload::new(WorkloadConfig {
        seed: 2022,
        num_templates: 60,
        adhoc_per_day: 15,
        max_instances_per_day: 2,
        ..WorkloadConfig::default()
    })
    .jobs_for_day(0)
}

#[test]
fn every_corpus_plan_streams_like_the_tree() {
    let optimizer = Optimizer::default();
    let default = optimizer.default_config();
    let jobs = corpus();
    assert!(jobs.len() >= 60);
    for job in &jobs {
        assert_streams_like_the_tree(&*job.plan);
        let compiled = optimizer
            .compile(&job.plan, &default)
            .expect("corpus compiles under the default configuration");
        assert_streams_like_the_tree(&*compiled.physical);
    }
}

const SCRIPT: &str = r#"
    sales = EXTRACT user:int, item:int, spend:float FROM "store/sales";
    users = EXTRACT user:int, region:string FROM "store/users";
    big   = SELECT user, spend FROM sales WHERE spend > 100;
    j     = SELECT * FROM big AS b JOIN users AS u ON b.user == u.user;
    agg   = SELECT region, SUM(spend) AS total FROM j GROUP BY region;
    OUTPUT agg TO "out/by_region";
    OUTPUT big TO "out/big_sales";
"#;

/// Literal values recorded at the last commit that fingerprinted by
/// serializing (PR 23). They key the compile cache, the execution cache, the
/// delta-base cache and every golden: changing one is a deliberate re-key
/// that re-blesses all of those in the same commit.
#[test]
fn fingerprints_keep_their_pinned_values() {
    let plan = bind_script(SCRIPT, &Catalog::default()).unwrap();
    assert_eq!(plan.fingerprint(), 0xb30d_a57e_fecf_eee0);
    let optimizer = Optimizer::default();
    let compiled = optimizer
        .compile(&plan, &optimizer.default_config())
        .unwrap();
    assert_eq!(compiled.physical.fingerprint(), 0x109c_4f8e_71b2_672f);
    // And a fold over the whole corpus, logical and physical.
    let default = optimizer.default_config();
    let (logical, physical) = corpus().iter().fold((0, 0), |(l, p), job| {
        let compiled = optimizer.compile(&job.plan, &default).unwrap();
        (
            scope_ir::ids::combine(l, job.plan.fingerprint()),
            scope_ir::ids::combine(p, compiled.physical.fingerprint()),
        )
    });
    assert_eq!(logical, 0xdce0_f158_6a05_cf93);
    assert_eq!(physical, 0xc1e4_fa8a_a496_2070);
}
