//! Hostile input never panics the front end. Two scripts shaped like the
//! workload corpus are mutated byte by byte — every truncation, a
//! single-byte replacement from a set of syntax-significant bytes at every
//! position, and a deletion at every position — and each variant must bind
//! to `Err` or to a plan that passes `validate()`.

use scope_lang::{bind_script, Catalog};
use std::panic::{catch_unwind, AssertUnwindSafe};

const JOIN_GROUP_BY: &str = r#"
fact = EXTRACT k:int, a:int, v:float FROM "store/fact";
dim  = EXTRACT k:int, g:int, s:string FROM "store/dim";
flt  = SELECT k, v FROM fact WHERE v > 10.5 AND a > 3;
j    = SELECT * FROM flt AS f JOIN dim AS d ON f.k == d.k;
rpt  = SELECT g, SUM(v) AS total, COUNT(*) AS n FROM j GROUP BY g;
OUTPUT rpt TO "out/joined";
"#;

const UNION_PROCESS_TOP: &str = r#"
s0   = EXTRACT k:int, v:float FROM "store/s0";
s1   = EXTRACT k:int, v:float FROM "store/s1";
u    = UNION s0, s1;
p    = PROCESS u USING Udf0;
rpt  = SELECT k, SUM(v) AS total, AVG(v) AS mean FROM p GROUP BY k;
best = SELECT TOP 50 k, total FROM rpt ORDER BY total DESC;
OUTPUT best TO "out/best";
"#;

/// The bytes a replacement writes: delimiters, a quote, digits, a letter,
/// operators and whitespace.
const REPLACEMENTS: &[u8] = b"();\"0a=,.*-9 \n";

/// Every variant of `script`: each strict prefix, each single-byte
/// replacement, each single-byte deletion. The scripts are ASCII and so are
/// the replacements, so every variant is valid UTF-8.
fn variants(script: &str) -> Vec<String> {
    let bytes = script.as_bytes();
    let text = |v: Vec<u8>| String::from_utf8(v).unwrap();
    let mut out: Vec<String> = (0..bytes.len())
        .map(|len| text(bytes[..len].to_vec()))
        .collect();
    for i in 0..bytes.len() {
        for &r in REPLACEMENTS {
            if bytes[i] != r {
                let mut v = bytes.to_vec();
                v[i] = r;
                out.push(text(v));
            }
        }
        let mut v = bytes.to_vec();
        v.remove(i);
        out.push(text(v));
    }
    out
}

#[test]
fn mutated_scripts_bind_to_an_error_or_a_valid_plan() {
    let catalog = Catalog::default();
    let mut inputs = 0;
    for script in [JOIN_GROUP_BY, UNION_PROCESS_TOP] {
        bind_script(script, &catalog).expect("the unmutated script binds");
        for input in variants(script) {
            inputs += 1;
            let bound = catch_unwind(AssertUnwindSafe(|| bind_script(&input, &catalog)))
                .unwrap_or_else(|_| panic!("bind_script panicked on {input:?}"));
            if let Ok(plan) = bound {
                if let Err(e) = plan.validate() {
                    panic!("invalid plan ({e}) bound from {input:?}");
                }
            }
        }
    }
    assert!(inputs > 9_000, "{inputs} inputs");
}
