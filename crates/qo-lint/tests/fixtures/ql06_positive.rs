// QL06 positive: float accumulation inside parallel regions — reduction order
// would depend on thread interleaving.
// (`par_iter` stands for any `par_*(` call; the rule keys on the name.)

pub fn total(xs: &[f64]) -> f64 {
    xs.par_iter().sum()
}

pub fn accumulate(xs: &[f64], shared: &std::sync::Mutex<f64>) {
    xs.par_iter().for_each(|x| {
        *shared.lock() += x;
    });
}
