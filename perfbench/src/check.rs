//! Output checks. They run outside every timed phase.

use botmeter_core::{absolute_relative_error, Landscape};
use botmeter_dns::ServerId;
use std::collections::BTreeMap;

/// Simulator ground truth: active bots per (server, epoch) cell.
pub type Truth = BTreeMap<(ServerId, u64), f64>;

/// Whether two landscapes agree entry for entry and bit for bit (estimate
/// and error-bound bits, quality flags, cell keys and order).
pub fn bit_identical(a: &Landscape, b: &Landscape) -> bool {
    a.len() == b.len()
        && a.entries().iter().zip(b.entries()).all(|(x, y)| {
            x.server == y.server
                && x.epoch == y.epoch
                && x.quality == y.quality
                && x.estimate.to_bits() == y.estimate.to_bits()
                && x.error_bound.map(f64::to_bits) == y.error_bound.map(f64::to_bits)
        })
}

/// Feeds the checker a copy of `reference` with one estimate moved by one
/// ulp and returns whether the checker rejects it, as it must.
pub fn checker_rejects_perturbation(reference: &Landscape) -> bool {
    let mut entries = reference.entries().to_vec();
    let Some(first) = entries.first_mut() else {
        return false;
    };
    first.estimate = f64::from_bits(first.estimate.to_bits() + 1);
    !bit_identical(reference, &Landscape::from_entries(entries))
}

/// Mean absolute relative error of the landscape's cells against ground
/// truth, over the cells whose true population is positive.
pub fn are_mean(landscape: &Landscape, truth: &Truth) -> f64 {
    let errors: Vec<f64> = landscape
        .entries()
        .iter()
        .filter_map(|e| {
            let actual = *truth.get(&(e.server, e.epoch))?;
            (actual > 0.0).then(|| absolute_relative_error(e.estimate, actual))
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_core::{CellQuality, LandscapeEntry};

    fn landscape(estimates: &[f64]) -> Landscape {
        Landscape::from_entries(
            estimates
                .iter()
                .enumerate()
                .map(|(i, &estimate)| LandscapeEntry {
                    server: ServerId(1),
                    epoch: i as u64,
                    estimate,
                    quality: CellQuality::Ok,
                    error_bound: None,
                })
                .collect(),
        )
    }

    #[test]
    fn perturbed_landscape_counts_as_a_failure() {
        let reference = landscape(&[10.0, 20.0]);
        assert!(bit_identical(&reference, &reference.clone()));
        assert!(checker_rejects_perturbation(&reference));
        assert!(!bit_identical(&reference, &landscape(&[10.0])));
    }

    #[test]
    fn are_skips_cells_without_true_population() {
        let truth: Truth = [((ServerId(1), 0), 10.0), ((ServerId(1), 1), 0.0)].into();
        assert!((are_mean(&landscape(&[12.0, 5.0]), &truth) - 0.2).abs() < 1e-12);
    }
}
