//! Host calibration: DP-cell throughput of the X-drop kernel.
//!
//! The simulator expresses alignment work in DP cells (a machine-independent
//! unit every kernel in this crate reports). To convert cells into simulated
//! seconds on a Cori KNL core, we measure the host's cells-per-second on a
//! representative extension and scale by a configurable host→KNL factor
//! (KNL cores run at 1.4 GHz with weak single-thread IPC; the default
//! factor is documented in EXPERIMENTS.md). Absolute times are therefore
//! approximate by design — the paper's *shapes* do not depend on them.
//!
//! [`measure_cell_rate_for`] times either of the crate's two kernels on the
//! same pair: the scalar reference, or the batched engine on a full cohort
//! of copies (`KernelImpl::Packed`, an alias, times the batched engine).

use crate::packed::PackedView;
use crate::scoring::ScoringScheme;
use crate::xdrop::XDropAligner;
use crate::KernelImpl;
use gnb_genome::PackedSeq;
#[expect(
    clippy::disallowed_types,
    reason = "calibration exists to measure the real host clock"
)]
use std::time::Instant;

/// Measured DP-cell throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRate {
    /// Cells per second on this host (single thread).
    pub host_cells_per_sec: f64,
    /// Cells evaluated during measurement.
    pub cells: u64,
}

impl CellRate {
    /// Cells per second of a simulated KNL core, given a host→KNL slowdown
    /// factor (> 0; e.g. 4.0 means one KNL core is 4× slower than the host).
    pub fn knl_cells_per_sec(&self, host_to_knl_slowdown: f64) -> f64 {
        assert!(host_to_knl_slowdown > 0.0);
        self.host_cells_per_sec / host_to_knl_slowdown
    }
}

/// The calibration workload: a pseudo-random 8192-bp near-identical pair
/// (the common case: a true overlap; ~5% substitutions keep the band
/// realistically wide).
fn calibration_pair() -> (Vec<u8>, Vec<u8>) {
    let n = 8192usize;
    let bases = b"ACGT";
    let a: Vec<u8> = (0..n).map(|i| bases[(i * 7 + i / 5 + 3) % 4]).collect();
    let mut b = a.clone();
    for i in (0..n).step_by(20) {
        b[i] = bases[(a[i] as usize + 1) % 4];
    }
    (a, b)
}

/// Measures X-drop cell throughput of the scalar reference kernel by
/// running repeated extensions over the calibration pair.
///
/// `target_cells` bounds the measurement work; a few million cells gives a
/// stable estimate in well under a second. Use [`measure_cell_rate_for`]
/// to calibrate a specific [`KernelImpl`].
pub fn measure_cell_rate(target_cells: u64) -> CellRate {
    measure_cell_rate_for(KernelImpl::Scalar, target_cells)
}

/// Measures the cell throughput of the given kernel implementation on the
/// shared calibration workload. The scalar kernel and the batched engine
/// evaluate bit-identical cell counts per extension, so rates are directly
/// comparable.
pub fn measure_cell_rate_for(kernel: KernelImpl, target_cells: u64) -> CellRate {
    let (a, b) = calibration_pair();
    let sc = ScoringScheme::DEFAULT;
    match kernel {
        KernelImpl::Scalar => {
            let mut aligner = XDropAligner::new();
            // Warm-up pass (page in buffers, settle frequency scaling).
            let _ = aligner.extend(&a, &b, &sc, 50);
            #[expect(
                clippy::disallowed_types,
                reason = "calibration exists to measure the real host clock"
            )]
            let start = Instant::now();
            let mut cells = 0u64;
            while cells < target_cells {
                let ext = aligner.extend(&a, &b, &sc, 50);
                cells += ext.cells;
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            CellRate {
                host_cells_per_sec: cells as f64 / secs,
                cells,
            }
        }
        // `Packed` is an alias of the batched engine.
        KernelImpl::Batched | KernelImpl::Packed => {
            // The batched engine's throughput depends on lane occupancy, so
            // calibrate it the way batches actually run: a full cohort of
            // pairs per call (the calibration pair replicated across the
            // widest lane count).
            let pa = PackedSeq::from_bytes(&a);
            let pb = PackedSeq::from_bytes(&b);
            let pairs: Vec<_> = (0..crate::interseq::MAX_LANES)
                .map(|_| {
                    (
                        PackedView::full(pa.as_slice()),
                        PackedView::full(pb.as_slice()),
                    )
                })
                .collect();
            let mut aligner = crate::interseq::BatchedXDropAligner::new();
            let _ = aligner.extend_batch(&pairs, &sc, 50);
            #[expect(
                clippy::disallowed_types,
                reason = "calibration exists to measure the real host clock"
            )]
            let start = Instant::now();
            let mut cells = 0u64;
            while cells < target_cells {
                for ext in aligner.extend_batch(&pairs, &sc, 50) {
                    cells += ext.cells;
                }
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            CellRate {
                host_cells_per_sec: cells as f64 / secs,
                cells,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_positive_and_plausible() {
        let r = measure_cell_rate(2_000_000);
        assert!(r.cells >= 2_000_000);
        // Any machine newer than a 2005 laptop does 10^6..10^10 cells/s.
        assert!(
            r.host_cells_per_sec > 1e6 && r.host_cells_per_sec < 1e11,
            "rate {}",
            r.host_cells_per_sec
        );
    }

    #[test]
    fn knl_scaling() {
        let r = CellRate {
            host_cells_per_sec: 1e8,
            cells: 0,
        };
        assert!((r.knl_cells_per_sec(4.0) - 2.5e7).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_slowdown_rejected() {
        let r = CellRate {
            host_cells_per_sec: 1e8,
            cells: 0,
        };
        let _ = r.knl_cells_per_sec(0.0);
    }
}
