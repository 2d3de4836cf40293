//! Typed baseline gates: the committed `baselines/*.json` files and the
//! `"<tag>-smoke {…}"` notes the experiments print are parsed with
//! `mocha_json` and compared key by key. A key missing on either side
//! fails the check — it never reads as an empty or zero value.

use mocha_json::Value;

/// Parses the committed baseline `baselines/<name>`.
pub fn load(name: &str) -> Result<Value, String> {
    let path = format!("{}/../../baselines/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    mocha_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Finds the `"<tag>-smoke {…}"` note in `output` and parses its object.
pub fn smoke(output: &str, tag: &str) -> Result<Value, String> {
    let marker = format!("{tag}-smoke ");
    let json = output
        .lines()
        .find_map(|l| l.split_once(&marker).map(|(_, json)| json))
        .ok_or_else(|| format!("no {tag}-smoke note in the output"))?;
    mocha_json::parse(json).map_err(|e| format!("{tag}-smoke: {e}"))
}

/// The number under `key`; a missing or non-numeric key is an error.
pub fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{key}: missing or not a number"))
}

/// Every key in `keys` holds the same number in `got` and `want`.
pub fn exact(got: &Value, want: &Value, keys: &[&str]) -> Result<(), String> {
    for k in keys {
        let (g, w) = (num(got, k)?, num(want, k)?);
        if g != w {
            return Err(format!("{k} = {g}, baseline expects {w}"));
        }
    }
    Ok(())
}

/// `got[key]` is at least `floor`.
pub fn at_least(got: &Value, key: &str, floor: f64) -> Result<(), String> {
    let g = num(got, key)?;
    if g >= floor {
        Ok(())
    } else {
        Err(format!("{key} = {g} fell below the floor {floor}"))
    }
}

/// `got[key]` is within `rel` of `want[key]`: `|got - want| ≤ rel·want + 1e-9`.
pub fn within(got: &Value, want: &Value, key: &str, rel: f64) -> Result<(), String> {
    let (g, w) = (num(got, key)?, num(want, key)?);
    if (g - w).abs() <= rel * w + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "{key} = {g} drifted more than {rel} from baseline {w}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Value {
        mocha_json::parse(text).unwrap()
    }

    const R4_KEYS: &[&str] = &[
        "windows",
        "variants",
        "decisions",
        "hits",
        "misses",
        "tracks",
        "ge_baseline",
    ];

    #[test]
    fn smoke_note_parses_and_matches_its_baseline() {
        let out = "== R4 ==\nnote: r4-smoke {\"windows\":4,\"variants\":8,\"decisions\":1115,\
                   \"hits\":583,\"misses\":532,\"tracks\":1,\"ge_baseline\":1}\n";
        let (got, base) = (smoke(out, "r4").unwrap(), load("r4-smoke.json").unwrap());
        assert_eq!(got, base);
        exact(&got, &base, R4_KEYS).unwrap();
    }

    #[test]
    fn an_absent_smoke_note_fails() {
        assert!(smoke("== R4 ==\nnote: r5-smoke {}\n", "r4").is_err());
        assert!(smoke("note: r4-smoke {\"hits\":", "r4").is_err());
    }

    #[test]
    fn a_perturbed_counter_fails() {
        let base = load("r4-smoke.json").unwrap();
        let hits = num(&base, "hits").unwrap();
        let got = base.clone().with("hits", hits + 1.0);
        let err = exact(&got, &base, R4_KEYS).unwrap_err();
        assert!(err.starts_with("hits"), "{err}");
    }

    #[test]
    fn a_missing_key_fails_on_either_side() {
        let base = load("cache-smoke.json").unwrap();
        let got = obj(r#"{"decisions":84,"hits":46,"misses":38}"#);
        assert!(exact(&got, &base, &["decisions", "hits", "misses"]).is_ok());
        assert!(exact(&got, &base, &["entries"]).is_err());
        assert!(exact(&base, &got, &["entries"]).is_err());
        // `burn_fast` is 0 in the baseline: a vanished key must not pass
        // as a zero.
        let metrics = load("metrics-smoke.json").unwrap();
        let slo = metrics.get("slo").unwrap();
        assert_eq!(num(slo, "burn_fast").unwrap(), 0.0);
        assert!(within(slo, slo, "burn_fast", 0.05).is_ok());
        assert!(within(&obj(r#"{"burn_slow":1}"#), slo, "burn_fast", 0.05).is_err());
        assert!(within(slo, &obj("{}"), "burn_fast", 0.05).is_err());
        assert!(at_least(&obj("{}"), "dse_speedup", 2.0).is_err());
    }

    #[test]
    fn a_floor_miss_fails() {
        let base = load("cache-smoke.json").unwrap();
        let gate = |key: &str, floor: f64, v: f64| {
            at_least(&Value::object().with(key, v), key, floor).is_ok()
        };
        let dse_floor = num(&base, "dse_speedup_floor").unwrap();
        assert_eq!(dse_floor, 2.0);
        assert!(gate("dse_speedup", dse_floor, 2.0));
        assert!(!gate("dse_speedup", dse_floor, 1.99));
        let batch_floor = 0.95 * num(&base, "batch_speedup").unwrap();
        assert!(gate("batch_speedup", batch_floor, 1.24));
        assert!(!gate("batch_speedup", batch_floor, 1.23));
    }

    #[test]
    fn a_five_point_one_percent_burn_drift_fails() {
        let metrics = load("metrics-smoke.json").unwrap();
        let slo = metrics.get("slo").unwrap();
        let want = num(slo, "burn_slow").unwrap();
        let drifted = |f: f64| slo.clone().with("burn_slow", want * f);
        assert!(within(&drifted(1.049), slo, "burn_slow", 0.05).is_ok());
        assert!(within(&drifted(0.951), slo, "burn_slow", 0.05).is_ok());
        assert!(within(&drifted(1.051), slo, "burn_slow", 0.05).is_err());
        assert!(within(&drifted(0.949), slo, "burn_slow", 0.05).is_err());
    }
}
