//! Beam-time session parameters.

use mpr_arch::Exposure;

/// Parameters of one stint under the beam.
///
/// The paper irradiated each of its 30 configurations for at least 100
/// hours at ~8 orders of magnitude above the terrestrial flux. The
/// simulator keeps the *hours* (they set the fluence denominator) and
/// chooses the flux so that an expected `target_candidates` compute
/// strikes occur — the FIT estimate is flux independent, so the target
/// only sets the statistical precision of the campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamSession {
    /// Beam hours for this configuration.
    pub hours: f64,
    /// Expected number of compute strikes to simulate.
    pub target_candidates: u64,
}

impl BeamSession {
    /// The paper-scale session: 100 beam hours, a few thousand strikes.
    pub fn paper() -> BeamSession {
        BeamSession {
            hours: 100.0,
            target_candidates: 4000,
        }
    }

    /// A fast session for tests and examples.
    pub fn quick() -> BeamSession {
        BeamSession {
            hours: 10.0,
            target_candidates: 300,
        }
    }

    /// Overrides the expected strike count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_target_candidates(mut self, n: u64) -> BeamSession {
        assert!(n > 0, "need at least one candidate strike");
        self.target_candidates = n;
        self
    }

    /// The session on a device `exposure`: beam seconds, fluence, and
    /// the expected compute and control strike counts. The flux is
    /// chosen so the expected compute-strike count hits the target; the
    /// cross section (events / fluence) does not depend on it.
    pub(crate) fn dose(&self, exposure: &Exposure) -> (f64, f64, f64, f64) {
        let seconds = self.hours * 3600.0;
        let flux = self.target_candidates as f64 / (exposure.compute * seconds);
        let fluence = flux * seconds;
        let compute = flux * exposure.compute * seconds;
        let due = flux * exposure.due * seconds;
        (seconds, fluence, compute, due)
    }

    /// Whether this session can run on a device `exposure`: its fluence
    /// is positive and finite, and so are its expected strike counts.
    /// Hours near the ends of the `f64` range (`1e305`, `5e-324`)
    /// overflow one of them.
    pub fn runs_on(&self, exposure: &Exposure) -> bool {
        let (_, fluence, compute, due) = self.dose(exposure);
        fluence.is_finite() && fluence > 0.0 && compute.is_finite() && due.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = BeamSession::paper();
        assert_eq!(p.hours, 100.0);
        assert!(p.target_candidates >= 1000);
        let q = BeamSession::quick();
        assert!(q.target_candidates < p.target_candidates);
    }

    #[test]
    fn builders_override() {
        let s = BeamSession::quick().with_target_candidates(77);
        assert_eq!(s.target_candidates, 77);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_rejected() {
        let _ = BeamSession::quick().with_target_candidates(0);
    }

    #[test]
    fn hours_at_the_ends_of_the_f64_range_cannot_run() {
        let exposure = Exposure {
            compute: 40.0,
            due: 2.0,
            pipeline_fraction: 0.1,
            persistence: None,
        };
        let session = |hours| BeamSession {
            hours,
            ..BeamSession::quick()
        };
        for hours in [1e-9, 4.0, 100.0, 1e9] {
            assert!(session(hours).runs_on(&exposure), "{hours} h");
        }
        for hours in [1e305, 5e-324] {
            assert!(!session(hours).runs_on(&exposure), "{hours} h");
        }
    }
}
