//! Counterfactual cost injection: per-rank scale factors over the cost model.
//!
//! The what-if profiler (see `core::whatif`) answers "what would the run
//! have cost if rank 3 packed twice as fast?" by *replaying* the workload
//! under a modified cost model rather than extrapolating from a trace.
//! [`CostKnobs`] is that modification: per-rank scale factors on the
//! dimensions its planner intervenes on ([`KnobDim`]: pack, wire,
//! compute), attached to a [`crate::ClusterConfig`] as an optional
//! overlay.
//!
//! Two invariants make the overlay safe to thread through every charging
//! path of [`crate::Rank`]:
//!
//! - **Zero overhead when unset.** A cluster built without knobs stores
//!   `None` and every charge site pays one `match` on it — the same
//!   is-enabled discipline the metrics registry uses.
//! - **Bitwise neutrality at 1.0.** Factors multiply the cost model's
//!   `f64` nanoseconds *before* quantization to [`crate::SimTime`], and
//!   `ns * 1.0 == ns` exactly in IEEE 754, so all-neutral knobs reproduce
//!   every golden trace bit for bit (pinned by the knobs neutrality
//!   tests).

/// One scalable cost dimension of the simulation.
///
/// These are the subsystems the what-if planner intervenes on when the
/// diagnosis layer blames a rank: datatype packing (and context
/// re-search), wire serialization bandwidth, and application compute. A
/// factor below 1.0 makes the dimension faster ("pack 2× faster" = 0.5),
/// above 1.0 slower, and 0.0 removes it entirely ("zero the outlier's
/// wire time").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum KnobDim {
    /// Datatype-engine pack/copy time and context re-search
    /// ([`crate::CostKind::Pack`] and [`crate::CostKind::Search`]).
    Pack,
    /// Wire serialization time (`wire_ns`), on both the blocking send
    /// path and the NIC reservation timeline.
    Wire,
    /// Application compute ([`crate::CostKind::Compute`]).
    Compute,
}

impl KnobDim {
    /// Stable lowercase name, used in experiment descriptions and the
    /// byte-stable `whatif_json` export.
    pub fn label(self) -> &'static str {
        match self {
            KnobDim::Pack => "pack",
            KnobDim::Wire => "wire",
            KnobDim::Compute => "compute",
        }
    }

    /// All dimensions, in index order (matching the factor arrays below).
    pub const ALL: [KnobDim; 3] = [KnobDim::Pack, KnobDim::Wire, KnobDim::Compute];

    fn index(self) -> usize {
        self as usize
    }
}

const NEUTRAL_FACTORS: [f64; 3] = [1.0; 3];

/// A set of counterfactual scale factors: per-rank overrides of the
/// neutral 1.0 on each [`KnobDim`]. Built with the
/// [`CostKnobs::scale_rank`] chain and resolved once per rank at cluster
/// construction ([`CostKnobs::resolve`]), so the hot charging paths never
/// search the override table.
#[derive(Clone, Debug, PartialEq)]
pub struct CostKnobs {
    /// `(rank, factors)` overrides, kept sorted by rank.
    per_rank: Vec<(usize, [f64; 3])>,
}

impl CostKnobs {
    /// All factors 1.0 — replays the run unchanged.
    pub fn neutral() -> CostKnobs {
        CostKnobs {
            per_rank: Vec::new(),
        }
    }

    /// Whether every factor is exactly 1.0.
    pub fn is_neutral(&self) -> bool {
        self.per_rank.iter().all(|(_, f)| *f == NEUTRAL_FACTORS)
    }

    /// Scale `dim` by `factor` on `rank` only.
    pub fn scale_rank(mut self, rank: usize, dim: KnobDim, factor: f64) -> CostKnobs {
        assert!(factor >= 0.0, "cost factors must be nonnegative");
        match self.per_rank.binary_search_by_key(&rank, |(r, _)| *r) {
            Ok(i) => self.per_rank[i].1[dim.index()] = factor,
            Err(i) => {
                let mut f = NEUTRAL_FACTORS;
                f[dim.index()] = factor;
                self.per_rank.insert(i, (rank, f));
            }
        }
        self
    }

    /// The effective factors for `rank`, flattened for the hot path.
    pub fn resolve(&self, rank: usize) -> ResolvedKnobs {
        let f = self
            .per_rank
            .binary_search_by_key(&rank, |(r, _)| *r)
            .map(|i| self.per_rank[i].1)
            .unwrap_or(NEUTRAL_FACTORS);
        ResolvedKnobs {
            pack: f[0],
            wire: f[1],
            compute: f[2],
        }
    }

    /// Human-readable summary of the non-neutral factors, e.g.
    /// `"pack x0.5 @rank3, wire x0 @rank5"`. Empty string when neutral.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        for (rank, factors) in &self.per_rank {
            for dim in KnobDim::ALL {
                let f = factors[dim.index()];
                if f != 1.0 {
                    parts.push(format!("{} x{} @rank{rank}", dim.label(), f));
                }
            }
        }
        parts.join(", ")
    }
}

/// Per-rank flattened factors, one multiply per charge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResolvedKnobs {
    pub pack: f64,
    pub wire: f64,
    pub compute: f64,
}

impl ResolvedKnobs {
    /// Identity factors.
    pub const NEUTRAL: ResolvedKnobs = ResolvedKnobs {
        pack: 1.0,
        wire: 1.0,
        compute: 1.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neutral_resolves_to_ones_everywhere() {
        let k = CostKnobs::neutral();
        assert!(k.is_neutral());
        assert_eq!(k.resolve(0), ResolvedKnobs::NEUTRAL);
        assert_eq!(k.resolve(99), ResolvedKnobs::NEUTRAL);
        assert_eq!(k.describe(), "");
    }

    #[test]
    fn per_rank_factors_stay_on_their_rank() {
        let k = CostKnobs::neutral()
            .scale_rank(5, KnobDim::Wire, 2.0)
            .scale_rank(3, KnobDim::Pack, 0.5);
        assert!(!k.is_neutral());
        // A rank without an override sees neutral factors only.
        assert_eq!(k.resolve(0), ResolvedKnobs::NEUTRAL);
        // Each overridden rank sees its own factors only.
        assert_eq!(
            k.resolve(3),
            ResolvedKnobs {
                pack: 0.5,
                ..ResolvedKnobs::NEUTRAL
            }
        );
        assert_eq!(
            k.resolve(5),
            ResolvedKnobs {
                wire: 2.0,
                ..ResolvedKnobs::NEUTRAL
            }
        );
        let d = k.describe();
        assert_eq!(d, "pack x0.5 @rank3, wire x2 @rank5");
    }

    #[test]
    fn later_per_rank_edits_update_in_place() {
        let k = CostKnobs::neutral()
            .scale_rank(1, KnobDim::Compute, 0.5)
            .scale_rank(1, KnobDim::Compute, 0.25);
        assert_eq!(k.resolve(1).compute, 0.25);
        // A per-rank override set back to 1.0 still counts as neutral.
        let n = CostKnobs::neutral().scale_rank(2, KnobDim::Wire, 1.0);
        assert!(n.is_neutral());
    }
}
