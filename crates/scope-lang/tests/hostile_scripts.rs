//! Hostile input never panics the front end. Two scripts shaped like the
//! workload corpus are mutated character by character — every truncation, a
//! replacement from a set of syntax-significant and multi-byte characters at
//! every position, and a deletion at every position — and each variant must
//! bind to `Err` or to a plan that passes `validate()`.

mod mutations;

use scope_lang::{bind_script, Catalog};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn mutated_scripts_bind_to_an_error_or_a_valid_plan() {
    let catalog = Catalog::default();
    let mut inputs = 0;
    for script in mutations::SCRIPTS {
        bind_script(script, &catalog).expect("the unmutated script binds");
        for input in mutations::variants(script) {
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
    assert!(inputs > 13_000, "{inputs} inputs");
}
