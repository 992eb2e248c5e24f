//! Provenance stamps for exported measurement artifacts.
//!
//! Nothing in `bench` reads a wall clock: every artifact it writes is a
//! deterministic count, and speed is measured by the repo benchmark under
//! `benchmark/`.

use telemetry::{Profile, Registry};

use crate::runner::Args;

/// Provenance of one measurement artifact: the facts `benchcmp` needs to
/// refuse (or warn about) apples-to-oranges comparisons — a quick-scale
/// debug run diffed against a full-scale release export says nothing.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Cores the host offers.
    pub cores: usize,
    /// Scale label (`quick` / `default` / `full`).
    pub scale: &'static str,
    /// Seeds per scheme.
    pub seeds: u64,
    /// `release` or `debug`.
    pub build_profile: &'static str,
}

impl Provenance {
    /// Provenance for a deterministic artifact (a metrics, profile or serve
    /// export). These are byte-identical under every `--jobs` value, so the
    /// stamp records `jobs` as the literal `"any"` and CI compares them
    /// across worker counts.
    pub fn deterministic(args: &Args) -> Provenance {
        Provenance {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            scale: args.scale.label(),
            seeds: args.seeds,
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// Stamps the provenance into a registry's `meta` section. Meta merges
    /// first-wins, so stamping the (empty) global export before any run
    /// folds in pins these values for the whole process.
    pub fn stamp(&self, reg: &mut Registry) {
        reg.set_meta("cores", &self.cores.to_string());
        reg.set_meta("jobs", "any");
        reg.set_meta("scale", self.scale);
        reg.set_meta("seeds", &self.seeds.to_string());
        reg.set_meta("build_profile", self.build_profile);
    }

    /// Stamps into a profile export (its embedded registry's meta).
    pub fn stamp_profile(&self, p: &mut Profile) {
        self.stamp(&mut p.reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_provenance_stamps_jobs_any() {
        let args = Args::parse_from(["--quick", "--jobs", "7"]).unwrap();
        let prov = Provenance::deterministic(&args);
        assert_eq!(prov.scale, "quick");
        let mut reg = Registry::new();
        prov.stamp(&mut reg);
        assert_eq!(
            reg.meta_get("jobs"),
            Some("any"),
            "deterministic artifacts ignore --jobs"
        );
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
