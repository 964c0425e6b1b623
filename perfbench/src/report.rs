//! The two output lines of a run: the full record (fingerprint, checks,
//! every metric with unit and better-direction) and, last, the compact
//! result object.

use crate::stats::Metrics;

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Outcome of one run's output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    /// One line per failed check, for the record and stderr.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let what = what();
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }
}

/// The full record line.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    fingerprint: &[(&'static str, String)],
    checks: &Checks,
    metrics: &Metrics,
) -> String {
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| quote(f)).collect();
    let ms: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let note = m
                .note
                .as_ref()
                .map(|n| format!(",\"note\":{}", quote(n)))
                .unwrap_or_default();
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"better\":{}{note}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit),
                quote(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\"record\":\"drcell-perfbench\",\"workload\":{},\"seed\":{seed},\"trace\":{trace},\
         \"fingerprint\":{{{}}},\"error_rate\":{},\"check_failures\":[{}],\"metrics\":{{{}}}}}",
        quote(workload),
        fp.join(","),
        number(checks.failed() as f64 / checks.attempted.max(1) as f64),
        failures.join(","),
        ms.join(",")
    )
}

/// The compact result object, printed as the last line of stdout.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let ms: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed(),
        ms.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s", Better::Lower);
        let mut c = Checks::default();
        c.op(true, String::new);
        assert_eq!(
            result_line(&c, &m),
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut c = Checks::default();
        c.op(true, String::new);
        c.op(false, || "row mismatch".to_owned());
        assert!(!c.correct());
        assert_eq!((c.attempted, c.failed()), (2, 1));
    }
}
