//! Harness-side profiling plumbing: provenance stamps for exported
//! measurement artifacts, and the wall-clock workload timer behind
//! `bench_baseline`.
//!
//! This file is simlint's D2 wall-clock allowlist for the harness layer:
//! `bench` may read real time here and nowhere else, the simulation crates
//! never do.

use std::time::Instant;

use telemetry::{Profile, Registry};

use crate::plan::{PlanOutput, RunPlan};
use crate::runner::Args;

/// Provenance of one measurement artifact: the facts `benchcmp` needs to
/// refuse (or warn about) apples-to-oranges comparisons — a quick-scale
/// debug run diffed against a full-scale release baseline says nothing.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Cores the host offers.
    pub cores: usize,
    /// Worker count — the literal `"any"` for deterministic artifacts
    /// (metrics/profile exports are byte-identical under every `--jobs`
    /// value, and CI compares them across worker counts), or the actual
    /// count for wall-clock reports.
    pub jobs: String,
    /// Scale label (`quick` / `default` / `full`).
    pub scale: &'static str,
    /// Seeds per scheme.
    pub seeds: u64,
    /// `release` or `debug` — wall-clock numbers from a debug build are
    /// not comparable to release numbers.
    pub build_profile: &'static str,
}

impl Provenance {
    /// The running binary's build profile label.
    pub fn build_profile_label() -> &'static str {
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    }

    /// Provenance for a *deterministic* artifact (a metrics or profile
    /// export): `jobs` is `"any"` by construction.
    pub fn deterministic(args: &Args) -> Provenance {
        Provenance {
            cores: available_cores(),
            jobs: "any".to_string(),
            scale: scale_label(args),
            seeds: args.seeds,
            build_profile: Provenance::build_profile_label(),
        }
    }

    /// Stamps the provenance into a registry's `meta` section. Meta merges
    /// first-wins, so stamping the (empty) global export before any run
    /// folds in pins these values for the whole process.
    pub fn stamp(&self, reg: &mut Registry) {
        reg.set_meta("cores", &self.cores.to_string());
        reg.set_meta("jobs", &self.jobs);
        reg.set_meta("scale", self.scale);
        reg.set_meta("seeds", &self.seeds.to_string());
        reg.set_meta("build_profile", self.build_profile);
    }

    /// Stamps into a profile export (its embedded registry's meta).
    pub fn stamp_profile(&self, p: &mut Profile) {
        self.stamp(&mut p.reg);
    }
}

/// The host's available parallelism (1 when undeterminable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The scale label (`quick` / `default` / `full`) of an argument set.
pub fn scale_label(args: &Args) -> &'static str {
    if args.full {
        "full"
    } else if args.quick {
        "quick"
    } else {
        "default"
    }
}

/// Measurements of one workload plan at one worker count.
pub(crate) struct Timed {
    pub wall_ms: f64,
    pub out: PlanOutput,
}

/// Runs a plan under a wall-clock measurement.
pub(crate) fn timed(plan: RunPlan<'_>) -> Timed {
    let start = Instant::now();
    let out = plan.run_detailed();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Timed { wall_ms, out }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_provenance_stamps_jobs_any() {
        let args = Args::parse_from(["--quick", "--jobs", "7"]).unwrap();
        let prov = Provenance::deterministic(&args);
        assert_eq!(prov.jobs, "any", "deterministic artifacts ignore --jobs");
        assert_eq!(prov.scale, "quick");
        let mut reg = Registry::new();
        prov.stamp(&mut reg);
        assert_eq!(reg.meta_get("jobs"), Some("any"));
        assert_eq!(reg.meta_get("scale"), Some("quick"));
        assert!(reg.meta_get("cores").is_some());
        assert!(matches!(
            reg.meta_get("build_profile"),
            Some("debug") | Some("release")
        ));
        // First-wins: merging a different stamp does not overwrite.
        let mut other = Registry::new();
        other.set_meta("scale", "full");
        reg.merge(&other);
        assert_eq!(reg.meta_get("scale"), Some("quick"));
    }
}
