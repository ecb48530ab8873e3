//! The benchmark's workloads and their fixed sizes.

/// One traffic mix. All are closed loop over one connection against
/// `tsg serve --threads 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Distinct ~12-event graphs, `analyze` plus a fixed `sim` share:
    /// the transport and protocol layers dominate.
    ServeSmall,
    /// One 1024-event skeleton per run under fresh delays per request:
    /// `.g` loading dominates, then the kernel and the report.
    AnalyzeLarge,
    /// One open session on a 512-event skeleton, then a seeded edit
    /// script: the kernel's incremental resume dominates.
    ExploreEdits,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSmall,
        Workload::AnalyzeLarge,
        Workload::ExploreEdits,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::AnalyzeLarge => "analyze-large",
            Workload::ExploreEdits => "explore-edits",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured requests per second of `--seconds`. A run sends a fixed
    /// count, `rate × seconds`, never "as many as fit": the count — not
    /// the clock — ends the run, so every run of one seed sends the same
    /// sequence. The rates are what the 2-vCPU reference machine serves
    /// with client and server on one CPU, so a run measures for about
    /// `--seconds` there, longer when the host is slow.
    pub fn rate(self) -> f64 {
        match self {
            Workload::ServeSmall => 12000.0,
            Workload::AnalyzeLarge => 200.0,
            Workload::ExploreEdits => 3500.0,
        }
    }

    /// Cold starts per run: the first server serves the measured
    /// sequence, the others are spread between its chunks.
    pub fn cold_starts(self) -> usize {
        16
    }

    /// Warm-up requests per cold start (for `explore-edits`, edits after
    /// the `session.open`; a multiple of the edit-script block, so the
    /// measured sequence starts a fresh block).
    pub fn warmup(self) -> usize {
        match self {
            Workload::ServeSmall => 256,
            Workload::AnalyzeLarge => 6,
            Workload::ExploreEdits => 32,
        }
    }
}
