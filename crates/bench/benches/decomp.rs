//! Decomposition benchmark and CI regression gate.
//!
//! Gated decomposition medians: Cholesky and LU solves at the
//! ALS/assessment working sizes, Householder QR and Jacobi SVD at the
//! committee sizes, each compared against `BENCH_decomp.json`.
//!
//! Modes:
//!
//! * `cargo bench -p drcell-bench --bench decomp` — print medians.
//! * `... --bench decomp -- --write BENCH_decomp.json` — record a baseline.
//! * `... --bench decomp -- --check BENCH_decomp.json` — fail (exit 1) when
//!   any decomposition regresses more than 15% against the baseline
//!   (override: `--max-regression 0.30`).
//!
//! Machine portability follows the other gates: every decomposition median
//! is normalised by a fixed **probe** (a naive 48³ reference GEMM, code no
//! optimisation in this crate touches), and that ratio is compared against
//! the baseline's — machine-independent. Absolute medians are compared
//! only when the baseline's probe shows a comparable machine class
//! (within 0.7–1.4×); otherwise they are skipped with a note.

use drcell_bench::{gate, median_us};
use drcell_linalg::decomp::{Cholesky, Lu, Qr, Svd};
use drcell_linalg::gemm::{gemm_reference, Trans};
use drcell_linalg::Matrix;
use std::hint::black_box;

fn spd(n: usize) -> Matrix {
    let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 / 13.0 - 0.5);
    let mut g = a.transpose().matmul(&a).expect("square");
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g
}

fn rect(m: usize, n: usize) -> Matrix {
    Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0 - 0.5)
}

/// `(json key, median µs)` per decomposition, plus the probe.
struct Medians {
    probe_us: f64,
    entries: Vec<(&'static str, f64)>,
}

fn measure() -> Medians {
    // The probe: plain reference GEMM, deliberately the unoptimised
    // triple loop so engine/kernel work never shifts the yardstick.
    let pa = rect(48, 48);
    let pb = rect(48, 48);
    let mut pc = Matrix::zeros(48, 48);
    let probe_us = median_us(101, || {
        gemm_reference(1.0, &pa, Trans::No, &pb, Trans::No, 0.0, &mut pc).unwrap();
        black_box(&pc);
    });

    let mut entries = Vec::new();
    let a64 = spd(64);
    let b64 = vec![1.0; 64];
    entries.push((
        "cholesky64_us",
        median_us(101, || {
            black_box(Cholesky::new(&a64).unwrap().solve(&b64).unwrap());
        }),
    ));
    entries.push((
        "lu64_us",
        median_us(101, || {
            black_box(Lu::new(&a64).unwrap().solve(&b64).unwrap());
        }),
    ));
    let r64 = rect(64, 16);
    entries.push((
        "qr64x16_us",
        median_us(101, || {
            black_box(Qr::new(&r64).unwrap());
        }),
    ));
    entries.push((
        "svd64x16_us",
        median_us(101, || {
            black_box(Svd::new(&r64).unwrap());
        }),
    ));
    Medians { probe_us, entries }
}

fn to_json(m: &Medians) -> String {
    let mut s = String::from("{\n  \"bench\": \"decomp_solves_and_factorisations\",\n");
    s.push_str(&format!("  \"probe_us\": {:.1},\n", m.probe_us));
    for (i, (key, us)) in m.entries.iter().enumerate() {
        let sep = if i + 1 == m.entries.len() {
            "\n"
        } else {
            ",\n"
        };
        s.push_str(&format!("  \"{key}\": {us:.1}{sep}"));
    }
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let m = measure();
    println!("group: decomp (probe: reference GEMM 48^3)");
    println!("  probe               median {:>10.1} µs", m.probe_us);
    for (key, us) in &m.entries {
        println!("  {key:<18}  median {us:>10.1} µs");
    }

    if let Some(path) = gate::flag(&args, "--write") {
        gate::write_baseline(&path, &to_json(&m));
    }
    if let Some(path) = gate::flag(&args, "--check") {
        let max_regression: f64 = gate::flag(&args, "--max-regression")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15);
        let body = gate::read_baseline(&path);
        let base_probe = gate::json_field(&body, "probe_us").expect("baseline missing probe_us");
        let mut failed = false;

        for (key, us) in &m.entries {
            let base = gate::json_field(&body, key)
                .unwrap_or_else(|| panic!("baseline is missing the `{key}` field"));
            let ratio = us / m.probe_us;
            let base_ratio = base / base_probe;
            if ratio > base_ratio * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: {key} probe-normalised ratio {ratio:.4} exceeds baseline \
                     {base_ratio:.4} by more than {:.0}%",
                    max_regression * 100.0
                );
                failed = true;
            }
        }

        let machine_factor = m.probe_us / base_probe;
        if (0.7..=1.4).contains(&machine_factor) {
            for (key, us) in &m.entries {
                let base = gate::json_field(&body, key).expect("checked above");
                if *us > base * (1.0 + max_regression) {
                    eprintln!(
                        "REGRESSION: {key} median {us:.1} µs exceeds baseline {base:.1} µs \
                         by more than {:.0}%",
                        max_regression * 100.0
                    );
                    failed = true;
                }
            }
        } else {
            println!(
                "note: baseline probe differs {machine_factor:.2}x from this machine — \
                 skipping absolute-median comparisons (re-record with --write on this runner \
                 class)"
            );
        }

        if failed {
            std::process::exit(1);
        }
        println!(
            "gate ok: {} decompositions within {:.0}% of baseline (probe factor {:.2}x)",
            m.entries.len(),
            max_regression * 100.0,
            machine_factor
        );
    }
}
