//! Runtime breakdowns: the paper's four-way split of where time goes,
//! plus a recovery category for runs under fault injection.
//!
//! Every comparative figure in the paper (Figs. 3, 4, 8, 9, 10) is a
//! stacked breakdown of *Computation (Alignment)*, *Computation
//! (Overhead)*, *Communication*, and *Synchronization*. This module turns a
//! simulation report into that breakdown, with per-category cross-rank
//! summaries and normalised fractions. Fault-injected runs add a fifth
//! component, *Recovery* — retry injection, duplicate-reply handling,
//! straggler-induced CPU inflation, stall freezes and re-issued exchange
//! rounds — which is identically zero in the fault-free runs behind the
//! paper's figures.

use gnb_sim::engine::{SimReport, TimeCategory};
use gnb_sim::Summary;
use serde::{Deserialize, Serialize};

/// A five-way runtime breakdown plus the overall (virtual) runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeBreakdown {
    /// Seed-and-extend alignment compute, per rank (seconds).
    pub compute: Summary,
    /// Data-structure traversal / kernel invocation overhead.
    pub overhead: Summary,
    /// Visible (unhidden) communication latency.
    pub comm: Summary,
    /// Synchronization (barrier / imbalance) waiting.
    pub sync: Summary,
    /// Fault-recovery time: retries, duplicate replies, straggler excess,
    /// stalls, re-issued rounds (zero without fault injection).
    pub recovery: Summary,
    /// Idle time the program never classified (should be ~0).
    pub unclassified: Summary,
    /// End-to-end runtime in seconds (the max finish across ranks).
    pub total: f64,
}

impl RuntimeBreakdown {
    /// Extracts the breakdown from a simulation report.
    pub fn from_report(report: &SimReport) -> RuntimeBreakdown {
        RuntimeBreakdown {
            compute: report.category_summary(TimeCategory::Compute),
            overhead: report.category_summary(TimeCategory::Overhead),
            comm: report.category_summary(TimeCategory::Comm),
            sync: report.category_summary(TimeCategory::Sync),
            recovery: report.category_summary(TimeCategory::Recovery),
            unclassified: Summary::of(
                report
                    .ranks
                    .iter()
                    .map(|r| r.unclassified_idle.as_secs_f64()),
            ),
            total: report.end_time.as_secs_f64(),
        }
    }

    /// Mean-per-rank fractions of the total runtime, in category order
    /// `(compute, overhead, comm, sync, recovery)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64, f64) {
        if self.total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0, 0.0);
        }
        (
            self.compute.mean / self.total,
            self.overhead.mean / self.total,
            self.comm.mean / self.total,
            self.sync.mean / self.total,
            self.recovery.mean / self.total,
        )
    }

    /// Fraction of the runtime that is visible communication (the paper's
    /// headline comparison quantity in §4.4).
    pub fn comm_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.comm.mean / self.total
        }
    }

    /// Fraction of the runtime spent on fault recovery (the degradation
    /// measure of the fault-injection experiments).
    pub fn recovery_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.recovery.mean / self.total
        }
    }

    /// Compute load imbalance: max/mean of per-rank compute seconds
    /// (Fig. 5's right axis).
    pub fn compute_imbalance(&self) -> f64 {
        self.compute.imbalance()
    }

    /// A TSV row: total and the five mean components (seconds).
    pub fn tsv_row(&self) -> String {
        format!(
            "{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}",
            self.total,
            self.compute.mean,
            self.overhead.mean,
            self.comm.mean,
            self.sync.mean,
            self.recovery.mean
        )
    }

    /// Header matching [`Self::tsv_row`].
    pub fn tsv_header() -> &'static str {
        "total_s\tcompute_s\toverhead_s\tcomm_s\tsync_s\trecovery_s"
    }

    /// One aligned console row for a labelled breakdown — the shared
    /// format the multi-series experiment binaries print one line per
    /// coordination strategy with (see [`Self::console_header`]).
    pub fn console_row(&self, label: &str) -> String {
        format!(
            "{:<9} | {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            label,
            self.total,
            self.compute.mean,
            self.overhead.mean,
            self.comm.mean,
            self.sync.mean,
            self.recovery.mean
        )
    }

    /// Header matching [`Self::console_row`], with `label` naming the
    /// first column (e.g. `"algo"`).
    pub fn console_header(label: &str) -> String {
        format!(
            "{:<9} | {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            label, "total(s)", "align", "ovhd", "comm", "sync", "recov"
        )
    }
}

impl std::fmt::Display for RuntimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (c, o, m, s, r) = self.fractions();
        write!(
            f,
            "total {:.3}s | align {:.3}s ({:.1}%) | overhead {:.3}s ({:.1}%) | comm {:.3}s ({:.1}%) | sync {:.3}s ({:.1}%)",
            self.total,
            self.compute.mean,
            c * 100.0,
            self.overhead.mean,
            o * 100.0,
            self.comm.mean,
            m * 100.0,
            self.sync.mean,
            s * 100.0,
        )?;
        if self.recovery.mean > 0.0 {
            write!(
                f,
                " | recovery {:.3}s ({:.1}%)",
                self.recovery.mean,
                r * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnb_sim::engine::RankReport;
    use gnb_sim::fault::FaultStats;
    use gnb_sim::SimTime;

    fn report() -> SimReport {
        let mk = |c: u64, o: u64, m: u64, s: u64| RankReport {
            finish: SimTime::from_ns(c + o + m + s),
            ledger: [
                SimTime::from_ns(c),
                SimTime::from_ns(o),
                SimTime::from_ns(m),
                SimTime::from_ns(s),
                SimTime::ZERO,
            ],
            unclassified_idle: SimTime::ZERO,
            mem_peak: 0,
        };
        SimReport {
            end_time: SimTime::from_ns(4_000_000_000),
            ranks: vec![
                mk(2_000_000_000, 100_000_000, 400_000_000, 1_500_000_000),
                mk(3_900_000_000, 100_000_000, 0, 0),
            ],
            events: 2,
            deferrals: 0,
            faults: FaultStats::default(),
            races: None,
            obs: None,
        }
    }

    #[test]
    fn extraction() {
        let b = RuntimeBreakdown::from_report(&report());
        assert!((b.total - 4.0).abs() < 1e-9);
        assert!((b.compute.mean - 2.95).abs() < 1e-9);
        assert!((b.compute.max - 3.9).abs() < 1e-9);
        assert!((b.sync.mean - 0.75).abs() < 1e-9);
        assert_eq!(b.recovery.mean, 0.0);
    }

    #[test]
    fn fractions_sum_sensible() {
        let b = RuntimeBreakdown::from_report(&report());
        let (c, o, m, s, r) = b.fractions();
        let sum = c + o + m + s + r;
        assert!(sum > 0.9 && sum <= 1.0 + 1e-9, "sum {sum}");
        assert!((b.comm_fraction() - 0.05).abs() < 1e-9);
        assert_eq!(b.recovery_fraction(), 0.0);
    }

    #[test]
    fn recovery_extracted_and_shown() {
        let mut rep = report();
        rep.ranks[0].ledger[4] = SimTime::from_ns(800_000_000);
        let b = RuntimeBreakdown::from_report(&rep);
        assert!((b.recovery.mean - 0.4).abs() < 1e-9);
        assert!((b.recovery_fraction() - 0.1).abs() < 1e-9);
        let shown = format!("{b}");
        assert!(shown.contains("recovery"), "{shown}");
        // Fault-free display stays in the paper's four-way format.
        let clean = format!("{}", RuntimeBreakdown::from_report(&report()));
        assert!(!clean.contains("recovery"), "{clean}");
    }

    #[test]
    fn imbalance() {
        let b = RuntimeBreakdown::from_report(&report());
        assert!((b.compute_imbalance() - 3.9 / 2.95).abs() < 1e-9);
    }

    #[test]
    fn zero_total() {
        let r = SimReport {
            end_time: SimTime::ZERO,
            ranks: vec![],
            events: 0,
            deferrals: 0,
            faults: FaultStats::default(),
            races: None,
            obs: None,
        };
        let b = RuntimeBreakdown::from_report(&r);
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0, 0.0, 0.0));
        assert_eq!(b.comm_fraction(), 0.0);
        assert_eq!(b.recovery_fraction(), 0.0);
    }

    #[test]
    fn tsv_row_matches_header() {
        let b = RuntimeBreakdown::from_report(&report());
        assert_eq!(b.tsv_row().split('\t').count(), 6);
        assert_eq!(
            RuntimeBreakdown::tsv_header().split('\t').count(),
            b.tsv_row().split('\t').count()
        );
        let shown = format!("{b}");
        assert!(shown.contains("total"));
    }
}
