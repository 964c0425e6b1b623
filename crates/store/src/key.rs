//! Content-hash keys for stored scenario results.
//!
//! A key identifies *the exact bytes a scenario run streams*: the
//! canonical spec (see [`drcell_scenario::canon`]) plus the matrix index
//! the scenario ran at — index included because result rows embed their
//! `scenario_index` column, so the same spec at sweep position 3 streams
//! different bytes than at position 0.

use drcell_scenario::ScenarioSpec;

use crate::sha256::Sha256;

/// The content-hash key of one scenario's result stream: hex SHA-256 of
/// the canonical spec bytes and the matrix index. Doubles as the spill
/// file name on disk (hex is filesystem-safe everywhere).
pub fn scenario_key(spec: &ScenarioSpec, index: usize) -> String {
    let mut h = Sha256::new();
    h.update(spec.canonical_json().as_bytes());
    // Domain separator + index: `\n` cannot occur in compact JSON output,
    // so (spec, index) pairs can never collide by concatenation.
    h.update(b"\n");
    h.update(index.to_string().as_bytes());
    crate::sha256::hex(&h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_scenario::registry;

    #[test]
    fn key_is_stable_and_index_sensitive() {
        let spec = registry::find("synthetic-smooth").expect("built-in");
        let a = scenario_key(&spec, 0);
        assert_eq!(a, scenario_key(&spec, 0));
        assert_eq!(a.len(), 64);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, scenario_key(&spec, 1));
    }

    #[test]
    fn key_ignores_inner_threads_but_not_seed() {
        use serde::{Deserialize, Serialize, Value};
        let base = registry::find("synthetic-smooth").expect("built-in");
        // A spec written when the runner section still carried
        // `inner_threads` loads and hashes like the spelling without it.
        let mut tree = base.to_value();
        let Value::Map(entries) = &mut tree else {
            panic!("a spec serialises to a map");
        };
        let Some((_, Value::Map(runner))) = entries.iter_mut().find(|(k, _)| k == "runner") else {
            panic!("the runner section is a map");
        };
        runner.push(("inner_threads".to_owned(), Value::Int(8)));
        let threaded = ScenarioSpec::from_value(&tree).expect("legacy spec loads");
        assert_eq!(scenario_key(&base, 0), scenario_key(&threaded, 0));
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(scenario_key(&base, 0), scenario_key(&reseeded, 0));
    }
}
