//! Seeded heavy-tailed open-loop arrival traces, and their JSON-lines file
//! form (`mocha-sim serve --open-loop --trace FILE` replay).
//!
//! The closed-loop `runtime` generator draws exponential inter-arrival
//! gaps; real serving traffic is burstier. Here gaps are **bounded Pareto**
//! (`α = 1.5`) with the same mean, so offered load is comparable knob-for-
//! knob while arrivals cluster into the bursts that make admission control
//! interesting. Tenant popularity is quadratically skewed (tenant 0 is the
//! hottest), and each tenant is pinned to one template of the mix — the
//! few-hot-many-cold population the paper's serving story assumes.
//!
//! A trace is a pure function of its [`OpenLoopConfig`]: every request
//! consumes exactly three RNG draws, so the stream is byte-stable under
//! any downstream consumption.

use mocha_core::Objective;
use mocha_json::{FromJson, ToJson, Value};
use mocha_model::ModelRng;
use mocha_runtime::{JobSpec, Mix, Priority, Submission};

/// One open-loop request: a runtime submission plus serving metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Arrival time, fabric cycles.
    pub arrival: u64,
    /// Originating tenant (population/reporting only; scheduling sees the
    /// spec's priority, not the tenant id).
    pub tenant: u64,
    /// Completion deadline, cycles after arrival; `None` = no SLO.
    pub deadline: Option<u64>,
    /// The job itself.
    pub spec: JobSpec,
}

impl Request {
    /// The runtime submission this request carries.
    pub fn submission(&self) -> Submission {
        Submission {
            arrival_cycle: self.arrival,
            spec: self.spec.clone(),
        }
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Value {
        let mut v = self
            .spec
            .to_json()
            .with("arrival_cycle", self.arrival)
            .with("tenant", self.tenant);
        if let Some(d) = self.deadline {
            v = v.with("deadline_cycles", d);
        }
        v
    }
}

impl FromJson for Request {
    fn from_json(v: &Value) -> Result<Self, mocha_json::JsonError> {
        let spec = JobSpec::from_json(v)?;
        let arrival = v
            .get("arrival_cycle")
            .map(|c| {
                c.as_u64().ok_or_else(|| {
                    mocha_json::JsonError::invalid("arrival_cycle must be a non-negative integer")
                })
            })
            .transpose()?
            .unwrap_or(0);
        let tenant = v
            .get("tenant")
            .map(|t| {
                t.as_u64().ok_or_else(|| {
                    mocha_json::JsonError::invalid("tenant must be a non-negative integer")
                })
            })
            .transpose()?
            .unwrap_or(0);
        let deadline = v
            .get("deadline_cycles")
            .map(|d| {
                d.as_u64().ok_or_else(|| {
                    mocha_json::JsonError::invalid("deadline_cycles must be a non-negative integer")
                })
            })
            .transpose()?;
        Ok(Request {
            arrival,
            tenant,
            deadline,
            spec,
        })
    }
}

/// Open-loop trace parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Tenant population size.
    pub tenants: usize,
    /// Offered load: mean arrivals per single-tenant service time of the
    /// mix (same unit as the closed-loop `runtime --load` knob).
    pub load: f64,
    /// RNG seed; the trace is a pure function of this config.
    pub seed: u64,
    /// Tenant mix (which networks the population runs).
    pub mix: Mix,
    /// Deadline attached to every request, cycles after arrival.
    pub slo: Option<u64>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            requests: 2_000,
            tenants: 100,
            load: 2.0,
            seed: 42,
            mix: Mix::Quick,
            slo: None,
        }
    }
}

/// Pareto shape for inter-arrival gaps: finite mean, infinite variance —
/// the heavy-tail regime.
const ALPHA: f64 = 1.5;

/// Generates a deterministic heavy-tailed open-loop trace.
pub fn generate(cfg: &OpenLoopConfig) -> Vec<Request> {
    assert!(cfg.load > 0.0, "offered load must be positive");
    assert!(cfg.tenants >= 1, "tenant population must be non-empty");
    let mut rng = ModelRng::seed_from_u64(cfg.seed ^ 0x6d6f_6368_615f_6f6c); // "mocha_ol"
    let mean_gap = cfg.mix.mean_service_cycles() / cfg.load;
    // Pareto(α) has mean α/(α−1)·xm = 3·xm at α = 1.5; solve xm for the
    // target mean, and bound single gaps at 1000× the mean so one extreme
    // draw cannot dwarf the whole trace.
    let xm = mean_gap * (ALPHA - 1.0) / ALPHA;
    let templates = cfg.mix.templates();
    let mut t = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let u = rng.gen_f64();
        let gap = (xm * (1.0 - u).powf(-1.0 / ALPHA))
            .min(mean_gap * 1e3)
            .round()
            .max(1.0) as u64;
        t += gap;
        // Quadratic skew: P(tenant < k) = sqrt(k/N), so low ids are hot.
        let tenant =
            ((cfg.tenants as f64 * rng.gen_f64().powi(2)) as u64).min(cfg.tenants as u64 - 1);
        let (network, profile) = templates[tenant as usize % templates.len()];
        let priority = match rng.gen_range(0u32..4) {
            0 => Priority::Low,
            3 => Priority::High,
            _ => Priority::Normal,
        };
        out.push(Request {
            arrival: t,
            tenant,
            deadline: cfg.slo,
            spec: JobSpec {
                network: network.to_string(),
                profile: profile.to_string(),
                objective: Objective::Edp,
                priority,
                // Top 53 bits of a golden-ratio hash: unique per request,
                // and exactly representable in JSON's f64 numbers so
                // traces round-trip through `--trace FILE` byte-for-byte.
                seed: cfg
                    .seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    >> 11,
            },
        });
    }
    out
}

/// Serializes a trace as JSON lines, one request per line — the
/// `--trace FILE` replay format.
pub fn to_jsonl(requests: &[Request]) -> String {
    let mut out = String::new();
    for r in requests {
        out.push_str(&r.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// The largest integer a JSON number carries exactly. Larger cycle counts
/// reach [`Request::from_json`] already rounded (or saturated to
/// `u64::MAX`, the engine's "no SLO" sentinel), and near `u64::MAX` they
/// overflow the queueing engine's and the runtime's cycle arithmetic.
const MAX_TRACE_CYCLE: u64 = 1 << 53;

/// Parses one JSON-lines request — a line of the `serve` protocol or of a
/// `--trace` file. The spec must validate, and arrival and deadline cycles
/// above 2^53 are rejected. Errors are one line, without a line number:
/// callers prefix their own.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = mocha_json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let req = Request::from_json(&v).map_err(|e| format!("bad request: {e}"))?;
    req.spec.validate()?;
    for (field, cycles) in [
        ("arrival_cycle", Some(req.arrival)),
        ("deadline_cycles", req.deadline),
    ] {
        if cycles.is_some_and(|c| c > MAX_TRACE_CYCLE) {
            return Err(format!(
                "{field} exceeds 2^53, the largest exact JSON integer"
            ));
        }
    }
    Ok(req)
}

/// Parses a JSON-lines trace with [`parse_request`]. Blank lines are
/// skipped and the result is stably sorted by arrival so hand-edited traces
/// replay cleanly. Errors carry 1-based line numbers.
pub fn from_jsonl(text: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_request(line).map_err(|e| format!("trace line {}: {e}", n + 1))?);
    }
    out.sort_by_key(|r| r.arrival);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OpenLoopConfig {
        OpenLoopConfig {
            requests: 400,
            tenants: 37,
            load: 3.0,
            seed: 7,
            mix: Mix::Quick,
            slo: Some(500_000),
        }
    }

    #[test]
    fn traces_are_deterministic_sorted_and_valid() {
        let a = generate(&cfg());
        let b = generate(&cfg());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for r in &a {
            r.spec.validate().unwrap();
            assert!(r.tenant < 37);
            assert_eq!(r.deadline, Some(500_000));
        }
        assert_ne!(
            generate(&OpenLoopConfig { seed: 8, ..cfg() }),
            a,
            "seeds change the trace"
        );
    }

    #[test]
    fn gaps_are_heavier_tailed_than_their_mean_suggests() {
        let reqs = generate(&OpenLoopConfig {
            requests: 20_000,
            slo: None,
            ..cfg()
        });
        let gaps: Vec<u64> = reqs
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let target = Mix::Quick.mean_service_cycles() / 3.0;
        assert!(
            (mean / target - 1.0).abs() < 0.35,
            "mean gap {mean} vs target {target}"
        );
        let max = *gaps.iter().max().unwrap() as f64;
        assert!(max > 20.0 * mean, "heavy tail: max {max} vs mean {mean}");
        // The bulk sits well below the mean — bursts, not a steady drip.
        let below = gaps.iter().filter(|&&g| (g as f64) < mean).count();
        assert!(below * 10 > gaps.len() * 6, "{below}/{}", gaps.len());
    }

    #[test]
    fn tenant_popularity_is_skewed_toward_low_ids() {
        let reqs = generate(&OpenLoopConfig {
            requests: 10_000,
            tenants: 100,
            ..cfg()
        });
        // Quadratic skew sends P(tenant < N/4) = 1/2 — twice the uniform
        // share. Assert comfortably above uniform (25%) without sitting on
        // the expectation.
        let hot = reqs.iter().filter(|r| r.tenant < 25).count();
        assert!(
            hot * 5 > reqs.len() * 2,
            "hot quartile has {hot}/{}",
            reqs.len()
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let reqs = generate(&OpenLoopConfig {
            requests: 50,
            ..cfg()
        });
        let text = to_jsonl(&reqs);
        assert_eq!(from_jsonl(&text).unwrap(), reqs);
        // Deadline-free requests round-trip without the key.
        let bare = generate(&OpenLoopConfig {
            requests: 3,
            slo: None,
            ..cfg()
        });
        assert!(!to_jsonl(&bare).contains("deadline_cycles"));
        assert_eq!(from_jsonl(&to_jsonl(&bare)).unwrap(), bare);
    }

    #[test]
    fn bad_trace_lines_carry_line_numbers() {
        let err = from_jsonl("{\"network\":\"tiny\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("trace line 2:"), "{err}");
        let err = from_jsonl("{\"network\":\"nope\"}\n").unwrap_err();
        assert!(err.starts_with("trace line 1:"), "{err}");
    }

    #[test]
    fn request_lines_parse_validate_and_bound_their_cycles() {
        let r =
            parse_request(r#"{"network":"tiny","arrival_cycle":7,"deadline_cycles":9}"#).unwrap();
        assert_eq!((r.arrival, r.deadline, r.tenant), (7, Some(9), 0));
        for (line, want) in [
            ("not json", "bad request JSON: "),
            (
                r#"{"network":"tiny","arrival_cycle":-1}"#,
                "arrival_cycle must be a non-negative integer",
            ),
            (r#"{"network":"nope"}"#, "unknown network"),
            (
                r#"{"network":"tiny","arrival_cycle":1e30}"#,
                "arrival_cycle exceeds 2^53",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
            assert!(!err.contains("line"), "no line number: {err}");
        }
    }

    #[test]
    fn cycles_beyond_exact_json_integers_are_rejected() {
        let line = |field: &str, v: &str| format!("{{\"network\":\"tiny\",\"{field}\":{v}}}\n");
        let max = MAX_TRACE_CYCLE.to_string();
        for field in ["arrival_cycle", "deadline_cycles"] {
            // 2^53 itself is exact and replays; anything the parser had to
            // round or saturate is refused with the line number.
            assert!(from_jsonl(&line(field, &max)).is_ok(), "{field} = 2^53");
            for v in ["9007199254740994", "18446744073709551000", "1e300"] {
                let text = format!("\n{}", line(field, v));
                let err = from_jsonl(&text).unwrap_err();
                assert!(err.starts_with("trace line 2: "), "{field}={v}: {err}");
                assert!(err.contains(field), "{field}={v}: {err}");
            }
        }
    }
}
