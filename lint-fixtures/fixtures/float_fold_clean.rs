//! Order-insensitive reductions pass; integer sums are exact in any
//! order.
pub fn peak(costs: &[f64]) -> f64 {
    costs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

pub fn floor(costs: &[f64]) -> f64 {
    costs.iter().copied().reduce(f64::min).unwrap_or(1.0)
}

pub fn count(items: &[u64]) -> u64 {
    items.iter().sum()
}
