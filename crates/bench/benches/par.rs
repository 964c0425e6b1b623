//! Intra-scenario parallelism benchmark and CI regression gate.
//!
//! Times the two hot layers the `drcell-pool` worker pool sits under:
//!
//! * the (ε, p)-quality **assessment** (batched leave-one-out engine) at
//!   the paper's Figure-6 working set, serial (`threads = 1`) vs pooled
//!   (`threads = 4`), plus the naive backend as the machine yardstick;
//! * **GEMM** at several row-block counts, serial kernel vs pooled
//!   row-block kernel.
//!
//! Modes (same harness pattern as the `loo`/`train_step` gates):
//!
//! * `cargo bench -p drcell-bench --bench par` — print medians.
//! * `... --bench par -- --write BENCH_par.json` — record a baseline.
//! * `... --bench par -- --check BENCH_par.json` — enforce the gates
//!   (tolerance override: `--max-regression 0.30`).
//!
//! The gates, and where each runs:
//!
//! 1. **Bit-identity (always, same run):** pooled assessment results and
//!    pooled GEMM outputs must equal their serial counterparts exactly.
//! 2. **Single-thread overhead ≤ 5% (machine-independent):** the serial
//!    batched median, normalised by the same-run naive median, must not
//!    exceed the baseline's normalised value by more than 5% — the pool
//!    must cost (essentially) nothing when `threads = 1`.
//! 3. **Pooled speedup ≥ 2× at 4 threads (hardware-dependent):** enforced
//!    only when this machine **and** the committed baseline both have ≥ 4
//!    hardware threads (a contract never measured on a runner class must
//!    not hard-fail its first run there); otherwise the measured speedup
//!    is printed with a re-record note.
//! 4. **≤ 15% median regression:** naive-normalised ratios against the
//!    baseline for the serial path always; for the pooled path and the
//!    pooled/serial GEMM ratios only when this machine **and** the
//!    baseline both have ≥ 4 hardware threads (below that, pooled timings
//!    measure scheduler oversubscription noise, not the kernel). Absolute
//!    medians are additionally compared when the baseline's naive median
//!    shows a comparable machine (within 0.7–1.4×).

use drcell_bench::{gate, loo_working_set, median_us};
use drcell_core::RunnerConfig;
use drcell_inference::{BatchedLooEngine, CompressiveSensing, NaiveLooSolver};
use drcell_linalg::gemm::{gemm_into, gemm_into_pool, Pool, Trans};
use drcell_linalg::Matrix;
use drcell_pool::hardware_threads;
use drcell_quality::{ErrorMetric, QualityAssessor, QualityRequirement};
use std::hint::black_box;

/// Worker count of the pooled measurements (the gate's "at 4 threads").
const POOL_THREADS: usize = 4;
/// GEMM sizes: 2, 3 and 4 row blocks of the `MC = 128` kernel.
const GEMM_SIZES: [usize; 3] = [192, 320, 448];

fn assessor() -> QualityAssessor {
    QualityAssessor::new(
        QualityRequirement::new(0.3, 0.9).unwrap(),
        ErrorMetric::MeanAbsolute,
    )
}

#[derive(Debug, Clone)]
struct Medians {
    hw_threads: usize,
    naive_us: f64,
    serial_us: f64,
    pooled_us: f64,
    /// `(n, serial_us, pooled_us)` per GEMM size.
    gemm: Vec<(usize, f64, f64)>,
}

impl Medians {
    fn assess_speedup(&self) -> f64 {
        self.serial_us / self.pooled_us
    }
}

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// One assessment per iteration at the runner's default assessment
/// tolerances, 16 sensed cells — the steady state of the selection loop —
/// through the naive backend, the serial batched engine and the pooled
/// batched engine, plus the GEMM pair. Verifies pooled ≡ serial exactly
/// before timing anything.
fn measure() -> Medians {
    let cfg = RunnerConfig::default().assessment_inference;
    let obs = loo_working_set(16);
    let cycle = obs.cycles() - 1;
    let assessor = assessor();

    // Bit-identity gate for the assessment: identical probability and
    // leave-one-out errors, serial vs pooled, cold and warm.
    {
        let mut serial = BatchedLooEngine::new(cfg.clone()).unwrap().with_threads(1);
        let mut pooled = BatchedLooEngine::new(cfg.clone())
            .unwrap()
            .with_threads(POOL_THREADS);
        for pass in 0..2 {
            let a = assessor.assess_with(&obs, cycle, &mut serial).unwrap();
            let b = assessor.assess_with(&obs, cycle, &mut pooled).unwrap();
            assert_eq!(
                a.probability, b.probability,
                "pass {pass}: pooled assessment diverged from serial"
            );
            assert_eq!(
                a.loo_errors, b.loo_errors,
                "pass {pass}: LOO errors diverged"
            );
        }
    }

    let cs = CompressiveSensing::new(cfg.clone())
        .unwrap()
        .with_threads(1);
    let naive_us = median_us(9, || {
        let mut solver = NaiveLooSolver::new(&cs);
        black_box(assessor.assess_with(&obs, cycle, &mut solver).unwrap());
    });

    let mut engine = BatchedLooEngine::new(cfg.clone()).unwrap().with_threads(1);
    let serial_us = median_us(15, || {
        black_box(assessor.assess_with(&obs, cycle, &mut engine).unwrap());
    });

    let mut engine = BatchedLooEngine::new(cfg)
        .unwrap()
        .with_threads(POOL_THREADS);
    let pooled_us = median_us(15, || {
        black_box(assessor.assess_with(&obs, cycle, &mut engine).unwrap());
    });

    let mut gemm = Vec::new();
    for &n in &GEMM_SIZES {
        let a = dense(n, n, 7);
        let b = dense(n, n, 11);
        let mut serial_c = Matrix::zeros(n, n);
        let mut pooled_c = Matrix::zeros(n, n);
        gemm_into(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut serial_c).unwrap();
        gemm_into_pool(
            1.0,
            &a,
            Trans::No,
            &b,
            Trans::No,
            0.0,
            &mut pooled_c,
            &Pool::new(POOL_THREADS),
        )
        .unwrap();
        assert_eq!(serial_c, pooled_c, "pooled GEMM diverged at n = {n}");

        let serial_us = median_us(9, || {
            gemm_into(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut serial_c).unwrap();
            black_box(&serial_c);
        });
        let pool = Pool::new(POOL_THREADS);
        let pooled_us = median_us(9, || {
            gemm_into_pool(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut pooled_c, &pool).unwrap();
            black_box(&pooled_c);
        });
        gemm.push((n, serial_us, pooled_us));
    }

    Medians {
        hw_threads: hardware_threads(),
        naive_us,
        serial_us,
        pooled_us,
        gemm,
    }
}

fn to_json(m: &Medians) -> String {
    let mut s = String::from("{\n  \"bench\": \"par_pool_assess_57x24_sensed16\",\n");
    s.push_str(&format!("  \"hw_threads\": {},\n", m.hw_threads));
    s.push_str(&format!("  \"pool_threads\": {POOL_THREADS},\n"));
    s.push_str(&format!("  \"naive_us\": {:.1},\n", m.naive_us));
    s.push_str(&format!("  \"serial_us\": {:.1},\n", m.serial_us));
    s.push_str(&format!("  \"pooled_us\": {:.1},\n", m.pooled_us));
    s.push_str(&format!(
        "  \"assess_speedup\": {:.2},\n",
        m.assess_speedup()
    ));
    for (i, (n, serial, pooled)) in m.gemm.iter().enumerate() {
        let sep = if i + 1 == m.gemm.len() { "\n" } else { ",\n" };
        s.push_str(&format!(
            "  \"gemm{n}_serial_us\": {serial:.1},\n  \"gemm{n}_pooled_us\": {pooled:.1}{sep}"
        ));
    }
    s.push_str("}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let m = measure();
    println!(
        "group: par (assessment 57x24, 16 sensed; GEMM {GEMM_SIZES:?}; {} hw thread(s))",
        m.hw_threads
    );
    println!("  assess/naive        median {:>10.1} µs", m.naive_us);
    println!("  assess/serial       median {:>10.1} µs", m.serial_us);
    println!(
        "  assess/pooled(x{POOL_THREADS})   median {:>10.1} µs",
        m.pooled_us
    );
    println!("  assess speedup      {:>17.2}x", m.assess_speedup());
    for &(n, serial, pooled) in &m.gemm {
        println!(
            "  gemm{n:<4} serial {serial:>10.1} µs | pooled(x{POOL_THREADS}) {pooled:>10.1} µs | {:>5.2}x",
            serial / pooled
        );
    }

    if let Some(path) = gate::flag(&args, "--write") {
        gate::write_baseline(&path, &to_json(&m));
        if m.hw_threads < POOL_THREADS {
            eprintln!(
                "WARNING: baseline recorded with {} hw thread(s) < {POOL_THREADS} — the \
                 >=2x pooled-speedup gate and the pooled-ratio regression gates are DORMANT \
                 until BENCH_par.json is re-recorded with --write on a machine with >= \
                 {POOL_THREADS} hardware threads",
                m.hw_threads
            );
        }
    }
    if let Some(path) = gate::flag(&args, "--check") {
        let max_regression: f64 = gate::flag(&args, "--max-regression")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15);
        let body = gate::read_baseline(&path);
        let field = |key: &str| -> f64 {
            gate::json_field(&body, key)
                .unwrap_or_else(|| panic!("baseline is missing the `{key}` field"))
        };
        let base_naive = field("naive_us");
        let base_serial = field("serial_us");
        let base_pooled = field("pooled_us");
        let base_hw = field("hw_threads") as usize;
        let mut failed = false;

        // Gate 2 — single-thread overhead, machine-independent: the serial
        // engine normalised by the same-run naive median.
        let serial_ratio = m.serial_us / m.naive_us;
        let base_serial_ratio = base_serial / base_naive;
        if serial_ratio > base_serial_ratio * 1.05 {
            eprintln!(
                "REGRESSION: serial/naive ratio {serial_ratio:.4} exceeds baseline \
                 {base_serial_ratio:.4} by more than 5% (single-thread pool overhead)"
            );
            failed = true;
        }
        // ... and the general regression tolerance on the same ratio.
        if serial_ratio > base_serial_ratio * (1.0 + max_regression) {
            eprintln!(
                "REGRESSION: serial/naive ratio {serial_ratio:.4} exceeds baseline \
                 {base_serial_ratio:.4} by more than {:.0}%",
                max_regression * 100.0
            );
            failed = true;
        }

        // Gate 3 — pooled speedup, hardware-dependent. Armed only when the
        // committed baseline was itself recorded on a >= POOL_THREADS
        // machine: like every other pooled comparison, a contract that has
        // never been measured on this runner class must not hard-fail CI.
        // A multi-core run against a 1-core baseline prints the speedup
        // loudly and asks for a re-record instead.
        if m.hw_threads >= POOL_THREADS && base_hw >= POOL_THREADS {
            if m.assess_speedup() < 2.0 {
                eprintln!(
                    "REGRESSION: pooled assessment speedup {:.2}x fell below the 2x contract \
                     at {POOL_THREADS} threads ({} hw threads available)",
                    m.assess_speedup(),
                    m.hw_threads
                );
                failed = true;
            }
        } else if m.hw_threads >= POOL_THREADS {
            println!(
                "note: {} hw thread(s) here but the baseline was recorded with {base_hw} — \
                 measured pooled speedup {:.2}x; re-record with --write on this runner class \
                 to arm the >=2x gate",
                m.hw_threads,
                m.assess_speedup()
            );
        } else {
            println!(
                "note: {} hw thread(s) < {POOL_THREADS} — skipping the >=2x pooled-speedup gate \
                 (cannot demonstrate parallel speedup on this runner)",
                m.hw_threads
            );
        }

        // Gate 4 — pooled ratios, only between multi-core runs: on a
        // machine with fewer than POOL_THREADS hardware threads the pooled
        // timings measure scheduler oversubscription noise (observed
        // ±15% run to run on 1 core), not the kernel, so there is nothing
        // meaningful to compare.
        let same_class = m.hw_threads >= POOL_THREADS && base_hw >= POOL_THREADS;
        if same_class {
            let pooled_ratio = m.pooled_us / m.naive_us;
            let base_pooled_ratio = base_pooled / base_naive;
            if pooled_ratio > base_pooled_ratio * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: pooled/naive ratio {pooled_ratio:.4} exceeds baseline \
                     {base_pooled_ratio:.4} by more than {:.0}%",
                    max_regression * 100.0
                );
                failed = true;
            }
            for &(n, serial, pooled) in &m.gemm {
                let ratio = pooled / serial;
                let base_ratio =
                    field(&format!("gemm{n}_pooled_us")) / field(&format!("gemm{n}_serial_us"));
                if ratio > base_ratio * (1.0 + max_regression) {
                    eprintln!(
                        "REGRESSION: gemm{n} pooled/serial ratio {ratio:.4} exceeds baseline \
                         {base_ratio:.4} by more than {:.0}%",
                        max_regression * 100.0
                    );
                    failed = true;
                }
            }
        } else {
            println!(
                "note: pooled-ratio comparisons need >= {POOL_THREADS} hw threads on both runs \
                 ({base_hw} baseline, {} now) — skipped (re-record with --write on a multi-core \
                 runner class)",
                m.hw_threads
            );
        }

        // Absolute medians only on a comparable machine, judged by the
        // naive median (untouched by the pool work).
        let machine_factor = m.naive_us / base_naive;
        if (0.7..=1.4).contains(&machine_factor) {
            if m.serial_us > base_serial * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: serial median {:.1} µs exceeds baseline {:.1} µs by more \
                     than {:.0}%",
                    m.serial_us,
                    base_serial,
                    max_regression * 100.0
                );
                failed = true;
            }
            if same_class && m.pooled_us > base_pooled * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: pooled median {:.1} µs exceeds baseline {:.1} µs by more \
                     than {:.0}%",
                    m.pooled_us,
                    base_pooled,
                    max_regression * 100.0
                );
                failed = true;
            }
        } else {
            println!(
                "note: baseline naive median differs {machine_factor:.2}x from this machine — \
                 skipping absolute-median comparisons (re-record with --write on this runner \
                 class)"
            );
        }

        if failed {
            std::process::exit(1);
        }
        println!(
            "gate ok: serial {:.1} µs (ratio {:.4} vs baseline {:.4}), pooled {:.1} µs, \
             speedup {:.2}x, bit-identity held{}",
            m.serial_us,
            serial_ratio,
            base_serial_ratio,
            m.pooled_us,
            m.assess_speedup(),
            if same_class {
                ""
            } else {
                " [pooled gates DORMANT — needs a >=4-hw-thread --write re-record]"
            }
        );
    }
}
