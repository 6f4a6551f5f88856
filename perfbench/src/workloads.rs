//! The benchmark's workloads: each one is an `ExperimentConfig` generated
//! from the workload seed, plus the analysis threads that go with it.

use workload::{AdversarialProfile, ExperimentConfig, ForensicsConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `ExperimentConfig::quick`: 72 h × 1 access/hour with the DNS and
    /// HTTP wire codecs on, one thread.
    QuickWire,
    /// The quick world over 168 h × 1 access/hour, codecs off, one thread,
    /// with the adversarial month of fault archetypes, the provenance
    /// recorder and forensic tracing on; the path ends with the
    /// ground-truth attribution audit.
    AdversarialAudit,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::QuickWire, Workload::AdversarialAudit];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickWire => "quick-wire",
            Workload::AdversarialAudit => "adversarial-audit",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment the program under test receives for `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Workload::QuickWire => ExperimentConfig {
                threads: 1,
                ..ExperimentConfig::quick(seed)
            },
            Workload::AdversarialAudit => ExperimentConfig {
                hours: 168,
                iterations_per_hour: 1,
                wire_fidelity: false,
                threads: 1,
                adversarial: AdversarialProfile::adversarial_month(),
                record_provenance: true,
                forensics: Some(ForensicsConfig::default()),
                ..ExperimentConfig::quick(seed)
            },
        }
    }
}

/// The same experiment with ground-truth capture (provenance stamps and
/// forensic traces) flipped: on where the workload has it off, off where it
/// has it on. Capture never changes the dataset, so the two runs differ
/// only in what capture costs.
pub fn with_truth_capture_flipped(config: &ExperimentConfig) -> ExperimentConfig {
    let on = captures_truth(config);
    ExperimentConfig {
        record_provenance: !on,
        forensics: (!on).then(ForensicsConfig::default),
        ..config.clone()
    }
}

pub fn captures_truth(config: &ExperimentConfig) -> bool {
    config.record_provenance || config.forensics.is_some()
}
