//! Absolute golden pin: the SHA-256 of the rows three fixed paths emit.
//!
//! Every other byte-identity check compares one run against another
//! (thread counts, kernel sets, cold vs warm). A change that shifts every
//! arm equally passes those silently; these digests catch it. They hold
//! with the SIMD kernels and with `DRCELL_BACKEND=scalar` alike
//! (invariant 9). Update a digest only together with a CHANGES.md entry
//! that explains the numeric change.

use drcell::scenario::{registry, sink, PolicySpec, ScenarioSpec, SweepEngine};
use drcell::store::sha256::Sha256;

/// `drcell-scenario sweep` with no flags: the built-in 8-scenario grid.
const DEFAULT_SWEEP_SHA256: &str =
    "960fea32cc4d31156b7b440f12042136208bd3f3d1bf2edd519f7035b3b451bd";

/// `drcell-scenario run --name synthetic-smooth`.
const SYNTHETIC_SMOOTH_SHA256: &str =
    "f3c9949f8d7eb81db337bfccd2fa5e801dbc252d8441a49984bb3af1e43c141c";

/// `aqi-baseline` under the RANDOM policy: the classification quality
/// path (Beta-Bernoulli posterior, Beta-Binomial tail), which the two
/// digests above never reach.
const AQI_BASELINE_RANDOM_SHA256: &str =
    "d7c620bec3870188ba91c977ca9ddc24242f85d455f912e1b21c5cb59e3f926b";

fn jsonl_digest(engine: &SweepEngine, specs: &[ScenarioSpec]) -> String {
    let results = engine.run(specs);
    let ok: Vec<_> = results
        .iter()
        .map(|r| r.as_ref().expect("scenario must run"))
        .collect();
    let mut out = Vec::new();
    sink::write_jsonl(&mut out, &ok).expect("in-memory write cannot fail");
    Sha256::hex_digest(&out)
}

#[test]
fn default_sweep_rows_match_the_golden_digest() {
    let specs = registry::default_sweep().expand();
    assert_eq!(
        jsonl_digest(&SweepEngine::new(2), &specs),
        DEFAULT_SWEEP_SHA256
    );
}

#[test]
fn synthetic_smooth_rows_match_the_golden_digest() {
    let spec = registry::find("synthetic-smooth").expect("registry scenario");
    assert_eq!(
        jsonl_digest(&SweepEngine::new(0), &[spec]),
        SYNTHETIC_SMOOTH_SHA256
    );
}

#[test]
fn aqi_baseline_random_rows_match_the_golden_digest() {
    let mut spec = registry::find("aqi-baseline").expect("registry scenario");
    spec.policy = PolicySpec::Random;
    assert_eq!(
        jsonl_digest(&SweepEngine::new(0), &[spec]),
        AQI_BASELINE_RANDOM_SHA256
    );
}
