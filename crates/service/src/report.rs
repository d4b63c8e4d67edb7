//! The unified, serializable result of a service job.

use clapton_core::{CafqaResult, ClaptonResult};
use clapton_vqe::VqeTrace;
use serde::{Deserialize, Serialize};

/// Everything one job produced, across all four methods — the single result
/// shape every entry point (library call, CLI, server, artifact directory)
/// reads back.
///
/// Sections for methods the spec did not request are `None`; requested
/// sections are always populated. The whole report round-trips through JSON
/// bit-identically, so `report.json` artifacts are as authoritative as the
/// in-memory value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The job's display name (from the spec).
    pub name: String,
    /// Exact ground energy `E0` of the problem.
    pub e0: f64,
    /// CAFQA baseline search result.
    pub cafqa: Option<CafqaResult>,
    /// Noise-aware CAFQA search result.
    pub ncafqa: Option<CafqaResult>,
    /// Clapton search result (transformation included).
    pub clapton: Option<ClaptonResult>,
    /// Device-model energy of the CAFQA initial point.
    pub cafqa_initial_energy: Option<f64>,
    /// Device-model energy of the nCAFQA initial point.
    pub ncafqa_initial_energy: Option<f64>,
    /// Device-model energy of the Clapton initial point (θ = 0 on `Ĥ`).
    pub clapton_initial_energy: Option<f64>,
    /// η of Clapton over the CAFQA-family baseline at the initial point
    /// (Eq. 14; CAFQA when run, else nCAFQA). `None` also when Clapton's
    /// initial energy equals `e0` to within `1e-9·max(|e0|, 1)`, where η is
    /// undefined.
    pub eta_initial: Option<f64>,
    /// VQE trace from the Clapton start (when `VqeRefine` was requested).
    pub clapton_vqe: Option<VqeTrace>,
    /// VQE trace from the CAFQA start (when `VqeRefine` was requested).
    pub cafqa_vqe: Option<VqeTrace>,
    /// VQE trace from the nCAFQA start (when `VqeRefine` was requested).
    pub ncafqa_vqe: Option<VqeTrace>,
}

impl Report {
    /// The best device-model energy any requested method reached at its
    /// initial point (VQE refinement endpoints included when present).
    pub fn best_energy(&self) -> Option<f64> {
        [
            self.cafqa_initial_energy,
            self.ncafqa_initial_energy,
            self.clapton_initial_energy,
            self.clapton_vqe.as_ref().map(|t| t.final_energy),
            self.cafqa_vqe.as_ref().map(|t| t.final_energy),
            self.ncafqa_vqe.as_ref().map(|t| t.final_energy),
        ]
        .into_iter()
        .flatten()
        .fold(None, |best: Option<f64>, e| {
            Some(best.map_or(e, |b| b.min(e)))
        })
    }
}
