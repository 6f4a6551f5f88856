//! The full analysis pipeline, with independent stages run concurrently.
//!
//! [`run`] indexes the dataset once ([`Analysis::new`]) and then computes
//! every headline artifact of the paper. The stages are data-independent —
//! each reads only the immutable dataset and the shared grids — so with
//! `AnalysisConfig::threads` ≠ 1 they run on scoped threads while each
//! stage's own scan additionally shards by record range. Results are
//! bit-identical to a serial run: every stage is deterministic and the
//! struct fields fix the output order.

use crate::bgp_corr::{self, SevereInstabilityReport, SeverityRule};
use crate::blame::{self, BlameBreakdown, ServerEpisodeStats};
use crate::episodes::{self, Figure4};
use crate::pair_episodes::{self, PairEpisodeConfig, PairEpisodeReport};
use crate::summary::{self, CategorySummary, FailureBreakdown};
use crate::{Analysis, AnalysisConfig};
use model::Dataset;

/// Every headline artifact, computed in one pass over the dataset.
#[derive(Clone, Debug)]
pub struct FullAnalysis {
    /// Table 3 (per-category transaction/connection counts).
    pub table3: Vec<CategorySummary>,
    /// Overall failure breakdown over the non-proxied categories (Figure 1).
    pub overall: FailureBreakdown,
    /// Figure 4 (hourly failure-rate CDFs + knees).
    pub figure4: Figure4,
    /// Table 5 at the configured threshold (paper: f = 5%).
    pub table5: BlameBreakdown,
    /// Table 5 at the conservative threshold (f = 10%).
    pub table5_conservative: BlameBreakdown,
    /// Section 4.4.5 server-side episode statistics.
    pub server_episodes: ServerEpisodeStats,
    /// Severe BGP instability, neighbor rule (Section 4.6).
    pub severe_neighbors: SevereInstabilityReport,
    /// Severe BGP instability, withdrawals-and-neighbors rule (Figure 6).
    pub severe_alt: SevereInstabilityReport,
    /// Client-server-specific episodes (Section 2.2 category 3).
    pub pair_episodes: PairEpisodeReport,
    /// Number of excluded near-permanent pairs (Section 4.4.2).
    pub permanent_pairs: usize,
    /// Columnar-vs-row memory footprint of the dataset the pipeline indexed
    /// (free to report here — the columns are already built).
    pub memory: model::MemoryFootprint,
}

/// Run the full pipeline over `ds` under `config`.
///
/// The conservative (f = 10%) blame row reuses the f = 5% grids — the grids
/// depend only on the permanent-pair exclusion, not on the threshold — so
/// the dataset is indexed exactly once.
pub fn run(ds: &Dataset, config: AnalysisConfig) -> FullAnalysis {
    let _span = telemetry::span!("analysis.pipeline");
    let threads = config.threads;
    let a5 = Analysis::new(ds, config);
    let a10 = a5.with_threshold(0.10);
    let neighbors_rule = SeverityRule::Neighbors(config.severe_neighbors);
    let alt_rule =
        SeverityRule::WithdrawalsAndNeighbors(config.alt_withdrawals, config.alt_neighbors);
    let permanent_pairs = a5.permanent.len();
    let memory = a5.cds.memory();

    if crate::par::resolve(threads) <= 1 {
        let prefix_grid = bgp_corr::prefix_grid(&a5);
        return FullAnalysis {
            table3: summary::table3_with_threads(&a5.cds, threads),
            overall: summary::overall_breakdown_with_threads(&a5.cds, threads),
            figure4: episodes::figure4(&a5),
            table5: blame::table5(&a5),
            table5_conservative: blame::table5(&a10),
            server_episodes: blame::server_episode_stats(&a5),
            severe_neighbors: bgp_corr::severe_instability_with_grid(
                &a5,
                neighbors_rule,
                &prefix_grid,
            ),
            severe_alt: bgp_corr::severe_instability_with_grid(&a5, alt_rule, &prefix_grid),
            pair_episodes: pair_episodes::detect(&a5, PairEpisodeConfig::default()),
            permanent_pairs,
            memory,
        };
    }

    // The prefix grid feeds both severity rules, so it is built first (its
    // own scan shards internally); every other stage is independent and
    // runs on its own scoped thread.
    let prefix_grid = bgp_corr::prefix_grid(&a5);
    std::thread::scope(|s| {
        let table3 = s.spawn(|| summary::table3_with_threads(&a5.cds, threads));
        let overall = s.spawn(|| summary::overall_breakdown_with_threads(&a5.cds, threads));
        let figure4 = s.spawn(|| episodes::figure4(&a5));
        let table5 = s.spawn(|| blame::table5(&a5));
        let table5_conservative = s.spawn(|| blame::table5(&a10));
        let server_episodes = s.spawn(|| blame::server_episode_stats(&a5));
        let severe_neighbors =
            s.spawn(|| bgp_corr::severe_instability_with_grid(&a5, neighbors_rule, &prefix_grid));
        let severe_alt =
            s.spawn(|| bgp_corr::severe_instability_with_grid(&a5, alt_rule, &prefix_grid));
        let pair = s.spawn(|| pair_episodes::detect(&a5, PairEpisodeConfig::default()));
        FullAnalysis {
            table3: table3.join().expect("pipeline stage panicked"),
            overall: overall.join().expect("pipeline stage panicked"),
            figure4: figure4.join().expect("pipeline stage panicked"),
            table5: table5.join().expect("pipeline stage panicked"),
            table5_conservative: table5_conservative
                .join()
                .expect("pipeline stage panicked"),
            server_episodes: server_episodes.join().expect("pipeline stage panicked"),
            severe_neighbors: severe_neighbors.join().expect("pipeline stage panicked"),
            severe_alt: severe_alt.join().expect("pipeline stage panicked"),
            pair_episodes: pair.join().expect("pipeline stage panicked"),
            permanent_pairs,
            memory,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SynthWorld;
    use model::{ClientId, SiteId};

    fn world() -> Dataset {
        let mut w = SynthWorld::new(6, 4, 24);
        for h in 0..24u32 {
            for c in 0..6u16 {
                for s in 0..4u16 {
                    let fail = if s == 0 && h < 2 {
                        4
                    } else {
                        u32::from(c == 1 && s == 1 && h == 5)
                    };
                    w.add_conn_batch(ClientId(c), SiteId(s), h, 12, fail);
                    w.add_txn_batch(ClientId(c), SiteId(s), h, 12, fail.min(2));
                }
            }
        }
        w.finish()
    }

    #[test]
    fn concurrent_stages_match_serial() {
        let ds = world();
        let serial = run(&ds, AnalysisConfig::default().with_threads(1));
        for threads in [2usize, 7] {
            let par = run(&ds, AnalysisConfig::default().with_threads(threads));
            assert_eq!(par.table5, serial.table5);
            assert_eq!(par.table5_conservative, serial.table5_conservative);
            assert_eq!(par.overall, serial.overall);
            assert_eq!(par.permanent_pairs, serial.permanent_pairs);
            assert_eq!(par.table3.len(), serial.table3.len());
            for (a, b) in par.table3.iter().zip(&serial.table3) {
                assert_eq!(a.transactions, b.transactions);
                assert_eq!(a.failed_transactions, b.failed_transactions);
                assert_eq!(a.connections, b.connections);
            }
            assert_eq!(par.figure4.clients.samples, serial.figure4.clients.samples);
            assert_eq!(par.figure4.clients.points, serial.figure4.clients.points);
            assert_eq!(par.figure4.servers.points, serial.figure4.servers.points);
            assert_eq!(
                par.server_episodes.total_hours,
                serial.server_episodes.total_hours
            );
            assert_eq!(
                par.severe_neighbors.instances.len(),
                serial.severe_neighbors.instances.len()
            );
            assert_eq!(
                par.pair_episodes.episodes.len(),
                serial.pair_episodes.episodes.len()
            );
        }
    }

    #[test]
    fn conservative_row_reclassifies() {
        let ds = world();
        let full = run(&ds, AnalysisConfig::default());
        assert_eq!(full.table5.total(), full.table5_conservative.total());
        assert!(full.table5_conservative.other >= full.table5.other);
    }
}
