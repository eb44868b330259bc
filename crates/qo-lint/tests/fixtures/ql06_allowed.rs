// QL06 allowlisted negative: fan out in parallel, collect in input order,
// reduce serially — plus one justified order-free side effect.
// (`par_iter` stands for any `par_*(` call; the rule keys on the name.)

pub fn total(xs: &[f64]) -> f64 {
    let parts: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
    parts.iter().sum() // serial reduce, input order
}

pub fn touch(xs: &[u64], hits: &std::sync::atomic::AtomicU64) {
    xs.par_iter()
        // qo-lint: allow(par-accumulate) — integer counter, order-free
        .for_each(|_| {
            hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
}
