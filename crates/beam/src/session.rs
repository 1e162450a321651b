//! Beam-time session parameters.

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
    /// RNG seed; identical sessions reproduce identical campaigns.
    pub seed: u64,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl BeamSession {
    /// The paper-scale session: 100 beam hours, a few thousand strikes.
    pub fn paper(seed: u64) -> BeamSession {
        BeamSession {
            hours: 100.0,
            target_candidates: 4000,
            seed,
            threads: 0,
        }
    }

    /// A fast session for tests and examples.
    pub fn quick(seed: u64) -> BeamSession {
        BeamSession {
            hours: 10.0,
            target_candidates: 300,
            seed,
            threads: 0,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let p = BeamSession::paper(1);
        assert_eq!(p.hours, 100.0);
        assert!(p.target_candidates >= 1000);
        let q = BeamSession::quick(1);
        assert!(q.target_candidates < p.target_candidates);
    }

    #[test]
    fn builders_override() {
        let s = BeamSession::quick(0).with_target_candidates(77);
        assert_eq!(s.target_candidates, 77);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_rejected() {
        let _ = BeamSession::quick(0).with_target_candidates(0);
    }
}
