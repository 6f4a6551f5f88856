//! `netprofiler` — the paper's failure-classification framework.
//!
//! Implements every analysis of *A Study of End-to-End Web Access Failures*
//! (CoNEXT 2006) over a [`model::Dataset`], using only what a real
//! measurement would have: the performance/connection records and the
//! cleaned BGP series — never the simulator's ground truth.
//!
//! | Module | Paper section | Artifacts |
//! |---|---|---|
//! | [`summary`] | §4.1 | Table 3, Figure 1, per-entity medians |
//! | [`dns_analysis`] | §4.2 | Table 4, Figure 2, dig agreement |
//! | [`tcp_analysis`] | §4.3 | Figure 3 |
//! | [`permanent`] | §4.4.2 | the 38 near-permanent pairs |
//! | [`episodes`] | §4.4.3 | Figure 4, knee detection |
//! | [`blame`] | §4.4.4–5 | Table 5, episode coalescing |
//! | [`spread`] | §4.4.6 | Table 6 |
//! | [`similarity`] | §4.4.6 | Tables 7 & 8 |
//! | [`replicas`] | §4.5 | total vs partial replica failures |
//! | [`bgp_corr`] | §4.6 | Figures 5–7, severe-instability stats |
//! | [`proxy_analysis`] | §4.7 | Table 9 |
//! | [`loss_corr`] | §4.1.3 | loss/failure correlation |
//! | [`pair_episodes`] | §2.2 cat. 3 | client-server-specific episodes (the paper defines but defers this) |
//! | [`timing`] | §3.5 | lookup/download time quantiles per category |
//!
//! The entry point is [`Analysis::new`], which indexes the dataset once
//! (hourly per-entity grids, permanent-pair detection) and hands out the
//! individual analyses.

pub mod audit;
pub mod bgp_corr;
pub mod blame;
pub mod caps;
pub mod config;
pub mod dns_analysis;
pub mod episodes;
pub mod grid;
pub mod integrity;
pub mod loss_corr;
pub mod pair_episodes;
pub mod par;
pub mod permanent;
pub mod pipeline;
pub mod proxy_analysis;
pub mod replicas;
pub mod similarity;
pub mod spread;
pub mod summary;
pub mod synthetic;
pub mod tcp_analysis;
pub mod timing;

pub use blame::{BlameBreakdown, BlameClass};
pub use config::AnalysisConfig;
pub use grid::{GridCoverage, HourlyGrid, OutcomeGrid};
pub use integrity::{ConfidentBlame, DegradationReport};
pub use permanent::PermanentPairs;

use model::{ColumnarDataset, Dataset};

/// The indexed analysis over one dataset.
#[derive(Clone)]
pub struct Analysis<'d> {
    pub ds: &'d Dataset,
    /// Structure-of-arrays view of the same records; every headline scan
    /// (grids, permanent pairs, Table 5, episodes, BGP grid, summaries)
    /// reads these columns instead of the row structs. `Arc` so the two
    /// blame thresholds ([`Analysis::with_threshold`]) share one copy — the
    /// columns are hundreds of MB at reproduction scale.
    pub cds: std::sync::Arc<ColumnarDataset>,
    pub config: AnalysisConfig,
    /// Near-permanent (client, site) pairs, detected from the data and
    /// excluded from the correlation analyses (Section 4.4.2).
    pub permanent: PermanentPairs,
    /// Hourly TCP-connection grid per client (permanent pairs excluded).
    pub client_grid: HourlyGrid,
    /// Hourly TCP-connection grid per server (permanent pairs excluded).
    pub server_grid: HourlyGrid,
    /// Hourly *transaction-outcome* grid per client: counts every
    /// transaction, DNS failures included, with Section 4.2 blame folded in
    /// — this is what sees client-side faults that kill DNS before any TCP
    /// connection exists.
    pub client_outcome: OutcomeGrid,
    /// Hourly transaction-outcome grid per server.
    pub server_outcome: OutcomeGrid,
}

impl<'d> Analysis<'d> {
    /// Index `ds` under `config`.
    pub fn new(ds: &'d Dataset, config: AnalysisConfig) -> Analysis<'d> {
        let _span = telemetry::span!("analysis.index");
        let cds = std::sync::Arc::new(ColumnarDataset::from_dataset(ds));
        let permanent = permanent::detect(&cds, &config);
        let ((client_grid, server_grid), (client_outcome, server_outcome)) = par::join2(
            config.threads,
            || {
                par::join2(
                    config.threads,
                    || grid::client_connection_grid(&cds, &permanent, config.threads),
                    || grid::server_connection_grid(&cds, &permanent, config.threads),
                )
            },
            || grid::transaction_outcome_grids(&cds, &permanent, &config),
        );
        Analysis {
            ds,
            cds,
            config,
            permanent,
            client_grid,
            server_grid,
            client_outcome,
            server_outcome,
        }
    }

    /// The same index under episode threshold `f`: the columns, permanent
    /// pairs and grids do not depend on `f`, so they are shared (the
    /// columns by `Arc`, the rest copied) instead of recomputed.
    pub fn with_threshold(&self, f: f64) -> Analysis<'d> {
        Analysis {
            config: self.config.with_threshold(f),
            ..self.clone()
        }
    }

    /// Index with the default configuration.
    pub fn with_defaults(ds: &'d Dataset) -> Analysis<'d> {
        Analysis::new(ds, AnalysisConfig::default())
    }
}
