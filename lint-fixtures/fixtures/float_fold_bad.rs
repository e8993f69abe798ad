//! float-fold-order: float addition is not associative, so a fold bakes
//! the traversal order into the result.
pub fn total(costs: &[f64]) -> f64 {
    costs.iter().fold(0.0, |acc, c| acc + c)
}
