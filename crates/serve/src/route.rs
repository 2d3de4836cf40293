//! Routing policies: which shard does the next job land on?
//!
//! All three policies are deterministic functions of the job stream and the
//! fleet state — the power-of-two-choices sampler draws from a seeded
//! [`ModelRng`], never from ambient entropy — so a fleet replay is
//! byte-identical at any thread count.
//!
//! * `round-robin` ignores state entirely: job *i* goes to shard `i mod N`.
//! * `locality` routes to the shard whose decision-cache/shape affinity is
//!   warmest for the job's template, breaking ties toward the shallower
//!   queue. This is the fleet-level extension of the morph-decision cache:
//!   repeated shapes keep landing where their morph decisions are already
//!   cached.
//! * `p2c` samples two distinct shards and picks the one with the smaller
//!   queue depth — the classic load-balancing result that two choices get
//!   exponentially close to best-of-N.

use std::collections::BTreeMap;

use mocha_model::rng::ModelRng;
use mocha_runtime::JobSpec;

/// Instantaneous view of one shard, passed to [`RoutePolicy::route`] in
/// canonical shard order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardView {
    /// Jobs admitted to the shard but not yet started.
    pub depth: usize,
    /// Estimated backlog in cycles (service estimate of everything queued).
    pub backlog: u64,
}

/// A routing policy. `template` identifies the job's shape class (index
/// into the workload's template table) so locality-aware policies can
/// track per-shard warmth.
pub trait RoutePolicy {
    /// Stable policy name, as printed in reports and parsed by the CLI.
    fn name(&self) -> &'static str;
    /// Pick a shard for the next job. `views.len()` is the fleet size and
    /// is always ≥ 1; the returned index must be `< views.len()`.
    fn route(&mut self, template: usize, views: &[ShardView]) -> usize;
    /// A shard was quarantined: drop any affinity state for it so future
    /// jobs do not chase a cold (or dead) cache.
    fn forget_shard(&mut self, shard: usize);
}

/// Numbers each job's template: jobs sharing `(network, profile)` share an
/// index, numbered in first-appearance order.
pub(crate) fn template_ids<'a>(specs: impl Iterator<Item = &'a JobSpec>) -> Vec<usize> {
    let mut keys: Vec<(&str, &str)> = Vec::new();
    specs
        .map(|spec| {
            let k = (spec.network.as_str(), spec.profile.as_str());
            keys.iter().position(|x| *x == k).unwrap_or_else(|| {
                keys.push(k);
                keys.len() - 1
            })
        })
        .collect()
}

/// Which routing policy to run. Parsed from the CLI `--route` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Job *i* goes to shard `i mod N`; ignores all state.
    RoundRobin,
    /// Route to the warmest near-shallowest shard for the job's template.
    Locality,
    /// Sample two distinct shards, pick the shallower queue.
    PowerOfTwo,
}

impl RouteKind {
    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            RouteKind::RoundRobin => "round-robin",
            RouteKind::Locality => "locality",
            RouteKind::PowerOfTwo => "p2c",
        }
    }

    /// Parse a `--route` value. Strict one-line error, same contract as
    /// `FaultMode::parse`.
    pub fn parse(s: &str) -> Result<RouteKind, String> {
        match s {
            "rr" | "round-robin" => Ok(RouteKind::RoundRobin),
            "locality" => Ok(RouteKind::Locality),
            "p2c" | "power-of-two" => Ok(RouteKind::PowerOfTwo),
            other => Err(format!(
                "unknown route policy '{other}' (expected round-robin|locality|p2c)"
            )),
        }
    }

    /// Instantiate the policy for a fleet of `shards` instances.
    pub fn policy(self, shards: usize, seed: u64) -> Box<dyn RoutePolicy> {
        match self {
            RouteKind::RoundRobin => Box::new(RoundRobin { next: 0 }),
            RouteKind::Locality => Box::new(Locality {
                seen: vec![BTreeMap::new(); shards],
                slack: 1,
            }),
            RouteKind::PowerOfTwo => {
                let mut rng = ModelRng::seed_from_u64(seed ^ 0xF1EE_7000_F1EE_7000);
                // Burn one draw so the stream is decorrelated from other
                // consumers of the same base seed.
                let _ = rng.next_u64();
                Box::new(PowerOfTwo { rng })
            }
        }
    }

    /// All policies, in the canonical order experiments sweep them.
    pub fn all() -> [RouteKind; 3] {
        [
            RouteKind::RoundRobin,
            RouteKind::Locality,
            RouteKind::PowerOfTwo,
        ]
    }
}

struct RoundRobin {
    next: usize,
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        RouteKind::RoundRobin.name()
    }

    fn route(&mut self, _template: usize, views: &[ShardView]) -> usize {
        let pick = self.next % views.len();
        self.next = self.next.wrapping_add(1);
        pick
    }

    fn forget_shard(&mut self, _shard: usize) {}
}

/// Route to the warmest shard for this template among the shards whose
/// queue depth is within `slack` of the minimum. Considering only
/// near-shallowest shards keeps warmth from piling every popular shape on
/// one instance while the rest idle.
struct Locality {
    /// Per-shard map: template index → times routed there.
    seen: Vec<BTreeMap<usize, u64>>,
    /// How much deeper than the shallowest queue a shard may be and still
    /// be considered for warmth.
    slack: usize,
}

impl RoutePolicy for Locality {
    fn name(&self) -> &'static str {
        RouteKind::Locality.name()
    }

    fn route(&mut self, template: usize, views: &[ShardView]) -> usize {
        let min_depth = views.iter().map(|v| v.depth).min().unwrap_or(0);
        let mut best: Option<(u64, usize)> = None; // (warmth, shard)
        for (s, view) in views.iter().enumerate() {
            if view.depth > min_depth + self.slack {
                continue;
            }
            let warmth = self.seen[s].get(&template).copied().unwrap_or(0);
            let better = match best {
                None => true,
                Some((bw, bs)) => {
                    let b = &views[bs];
                    warmth > bw
                        || (warmth == bw
                            && (view.depth, view.backlog, s) < (b.depth, b.backlog, bs))
                }
            };
            if better {
                best = Some((warmth, s));
            }
        }
        let pick = best.map(|(_, s)| s).unwrap_or(0);
        *self.seen[pick].entry(template).or_insert(0) += 1;
        pick
    }

    fn forget_shard(&mut self, shard: usize) {
        if let Some(m) = self.seen.get_mut(shard) {
            m.clear();
        }
    }
}

struct PowerOfTwo {
    rng: ModelRng,
}

impl RoutePolicy for PowerOfTwo {
    fn name(&self) -> &'static str {
        RouteKind::PowerOfTwo.name()
    }

    fn route(&mut self, _template: usize, views: &[ShardView]) -> usize {
        let n = views.len();
        if n == 1 {
            return 0;
        }
        let a = self.rng.gen_range(0..n);
        let mut b = self.rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let (va, vb) = (&views[a], &views[b]);
        if (va.depth, va.backlog, a) <= (vb.depth, vb.backlog, b) {
            a
        } else {
            b
        }
    }

    fn forget_shard(&mut self, _shard: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(depths: &[usize]) -> Vec<ShardView> {
        depths
            .iter()
            .map(|&d| ShardView {
                depth: d,
                backlog: d as u64 * 100,
            })
            .collect()
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_unknown() {
        assert_eq!(RouteKind::parse("rr").unwrap(), RouteKind::RoundRobin);
        assert_eq!(
            RouteKind::parse("round-robin").unwrap(),
            RouteKind::RoundRobin
        );
        assert_eq!(RouteKind::parse("locality").unwrap(), RouteKind::Locality);
        assert_eq!(RouteKind::parse("p2c").unwrap(), RouteKind::PowerOfTwo);
        assert_eq!(
            RouteKind::parse("power-of-two").unwrap(),
            RouteKind::PowerOfTwo
        );
        for bad in ["", "random", "P2C", "rr "] {
            let err = RouteKind::parse(bad).expect_err(bad);
            assert!(!err.contains('\n'));
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RouteKind::RoundRobin.policy(3, 0);
        let v = views(&[0, 0, 0]);
        let picks: Vec<usize> = (0..6).map(|_| p.route(0, &v)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn locality_sticks_to_warm_shard_until_it_gets_deep() {
        let mut p = RouteKind::Locality.policy(3, 0);
        let v = views(&[0, 0, 0]);
        let first = p.route(7, &v);
        assert_eq!(first, 0, "cold start breaks ties to lowest id");
        assert_eq!(p.route(7, &v), first, "warm shard is sticky");
        // Same template but the warm shard is now far deeper than the rest:
        // depth slack kicks in and routing moves off it.
        let deep = views(&[5, 0, 0]);
        assert_ne!(p.route(7, &deep), first);
    }

    #[test]
    fn locality_forgets_quarantined_shards() {
        let mut p = RouteKind::Locality.policy(2, 0);
        let v = views(&[0, 0]);
        assert_eq!(p.route(3, &v), 0);
        assert_eq!(p.route(3, &v), 0);
        p.forget_shard(0);
        // Warmth gone: tie-break is back to (depth, backlog, id); give
        // shard 1 a shallower queue so the pick must move.
        assert_eq!(p.route(3, &views(&[1, 0])), 1);
    }

    #[test]
    fn p2c_is_deterministic_for_a_seed_and_prefers_shallow() {
        let v = views(&[9, 0, 9, 9]);
        let mut a = RouteKind::PowerOfTwo.policy(4, 42);
        let mut b = RouteKind::PowerOfTwo.policy(4, 42);
        let pa: Vec<usize> = (0..32).map(|_| a.route(0, &v)).collect();
        let pb: Vec<usize> = (0..32).map(|_| b.route(0, &v)).collect();
        assert_eq!(pa, pb, "same seed, same picks");
        assert!(pa.contains(&1), "the shallow shard wins whenever sampled");
        let mut c = RouteKind::PowerOfTwo.policy(4, 43);
        let pc: Vec<usize> = (0..32).map(|_| c.route(0, &v)).collect();
        assert_ne!(pa, pc, "different seed, different sample stream");
    }

    #[test]
    fn p2c_never_picks_the_same_shard_twice_in_one_draw() {
        // With two shards and wildly uneven depth, p2c must always find the
        // shallow one because its two draws are distinct.
        let v = views(&[100, 0]);
        let mut p = RouteKind::PowerOfTwo.policy(2, 7);
        for _ in 0..64 {
            assert_eq!(p.route(0, &v), 1);
        }
    }
}
