//! Property-based tests for the DAG-partitioned (merged) schedule.
//!
//! The acceptance properties of the merged executor:
//!
//! * **policy equivalence** — `Merged` and `Level` schedules are *bitwise*
//!   identical at every worker count (notably `DENSE_THREADS` ∈ {1, 4},
//!   the pair CI pins) on the shapes the merged schedule exists for: deep
//!   narrow DAGs (long banded chains, blocked narrow ladders) and random
//!   lower patterns with chain-heavy structure;
//! * **differential vs dense** — merged-policy solves match `dense::trsv`
//!   / `dense::trsm` to 1e-12 on the densified pattern;
//! * **structural invariants** — super-levels are contiguous runs of whole
//!   levels whose dependencies never point forward.

use dense::{Diag, Matrix, Transpose, Triangle};
use proptest::prelude::*;
use sparse::{gen, SchedulePolicy, SolveOpts, SparseTri, SUPER_MIN_WEIGHT};

/// Max |a - b| over two equal-length vectors.
fn vec_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The deep-narrow-DAG family the merged schedule targets: blocked ladders
/// (`width`-wide levels chained block to block), degenerate chains
/// (`width = 1`), and unbroken bands.
fn deep_dag(kind: u32, n: usize, width: usize, deps: usize, seed: u64) -> sparse::SparseTri {
    match kind % 3 {
        0 => gen::deep_narrow_lower(n, width, deps, seed),
        1 => gen::deep_narrow_lower(n, 1, 1, seed), // pure chain, blocked form
        _ => gen::banded_lower(n, deps.max(1), seed), // unbroken band
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merged and level policies are bitwise identical to the sequential
    /// sweep (and to each other) at every worker count on deep narrow
    /// DAGs, including the transposed executor.
    #[test]
    fn merged_equals_level_bitwise_on_deep_dags(
        kind in 0u32..3,
        blocks in 2usize..400,
        width in 1usize..6,
        deps in 1usize..5,
        threads in 2usize..8,
        transpose in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = deep_dag(kind, blocks * width, width, deps, seed);
        let n = m.n();
        let b = gen::rhs_vec(n, seed ^ 0xdead);
        let base = SolveOpts::new().transpose(if transpose {
            dense::Transpose::Yes
        } else {
            dense::Transpose::No
        });
        let mut seq = b.clone();
        m.solve_with(&base.threads(1), &mut seq).unwrap();
        for t in [1usize, 4, threads] {
            for policy in [SchedulePolicy::Level, SchedulePolicy::Merged] {
                let mut x = b.clone();
                m.solve_with(&base.threads(t).policy(policy), &mut x).unwrap();
                prop_assert!(
                    x == seq,
                    "{policy:?} at {t} workers changed the result bits"
                );
            }
        }
    }

    /// Same bitwise guarantee on random lower patterns with chain-heavy
    /// structure (low fill keeps long dependency chains alive), for both
    /// the single- and blocked-RHS executors.
    #[test]
    fn merged_equals_level_bitwise_on_chain_heavy_random(
        n in 2usize..500,
        fill in 1usize..4,
        k in 1usize..6,
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        let m = gen::random_lower(n, fill, seed);
        let b = gen::rhs_vec(n, seed ^ 0xc0de);
        let mut seq = b.clone();
        m.solve_with(&SolveOpts::new().threads(1), &mut seq).unwrap();
        let bm = Matrix::from_fn(n, k, |i, j| ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5 - 1.0);
        let mut seq_m = bm.clone();
        m.solve_multi_with(&SolveOpts::new().threads(1), &mut seq_m).unwrap();
        for t in [1usize, 4, threads] {
            for policy in [SchedulePolicy::Level, SchedulePolicy::Merged] {
                let opts = SolveOpts::new().threads(t).policy(policy);
                let mut x = b.clone();
                m.solve_with(&opts, &mut x).unwrap();
                prop_assert!(x == seq, "{policy:?}/{t} changed single-RHS bits");
                let mut xm = bm.clone();
                m.solve_multi_with(&opts, &mut xm).unwrap();
                prop_assert!(xm == seq_m, "{policy:?}/{t} changed multi-RHS bits");
            }
        }
    }

    /// Merged-policy solves agree with the dense kernels on the densified
    /// pattern to 1e-12 (trsv single-RHS, trsm blocked-RHS).
    #[test]
    fn merged_matches_dense_on_densified_patterns(
        kind in 0u32..3,
        blocks in 1usize..60,
        width in 1usize..5,
        deps in 1usize..4,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let m = deep_dag(kind, blocks * width, width, deps, seed);
        let n = m.n();
        let d = m.to_dense();
        let opts = SolveOpts::new().threads(4).policy(SchedulePolicy::Merged);
        let b = gen::rhs_vec(n, seed ^ 0xfeed);
        let mut xs = b.clone();
        m.solve_with(&opts, &mut xs).unwrap();
        let xd = dense::trsv(m.triangle(), m.diag(), &d, &b).unwrap();
        prop_assert!(
            vec_abs_diff(&xs, &xd) < 1e-12,
            "merged vs dense trsv diverged beyond 1e-12"
        );
        let bm = Matrix::from_fn(n, k, |i, j| {
            (((i * 31 + j * 17 + seed as usize) % 23) as f64) / 11.5 - 1.0
        });
        let mut xm = bm.clone();
        m.solve_multi_with(&opts, &mut xm).unwrap();
        let xdm = dense::trsm(m.triangle(), m.diag(), &d, &bm).unwrap();
        prop_assert!(
            xm.max_abs_diff(&xdm).unwrap() < 1e-12,
            "merged vs dense trsm diverged beyond 1e-12"
        );
    }

    /// Structural invariants of the merged analysis on random patterns:
    /// super-levels tile the flattened row list contiguously on level
    /// boundaries, the row → super-level map is consistent, and no
    /// dependency ever points into a *later* super-level.
    #[test]
    fn super_levels_partition_rows_and_respect_dependencies(
        n in 1usize..400,
        fill in 0usize..8,
        upper in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let m = if upper {
            gen::random_upper(n, fill, seed)
        } else {
            gen::random_lower(n, fill, seed)
        };
        let s = m.schedule();
        let g = m.merged_schedule();
        let mut covered = 0usize;
        let mut seen = vec![false; n];
        for sl in 0..g.num_super_levels() {
            let r = g.super_range(sl);
            prop_assert_eq!(r.start, covered, "super-levels must tile contiguously");
            for &i in &s.rows()[r.clone()] {
                prop_assert!(!seen[i], "row scheduled twice");
                seen[i] = true;
                prop_assert_eq!(g.super_of(i), sl as u32);
            }
            covered = r.end;
        }
        prop_assert_eq!(covered, n);
        for i in 0..n {
            let (cols, _) = m.row_entries(i);
            for &j in cols {
                prop_assert!(
                    g.super_of(j) <= g.super_of(i),
                    "dependency {} of row {} lives in a later super-level",
                    j,
                    i
                );
            }
        }
    }
}

/// A lower pattern whose merged schedule mixes both kinds of wave: a wide
/// independent block (one level heavier than [`SUPER_MIN_WEIGHT`], its own
/// super-level) followed by a long chain whose skinny levels merge into
/// multi-level super-levels.  Each chain row depends on its predecessor and
/// on three rows of the block.
fn wide_block_then_chain(seed: u64) -> SparseTri {
    let wide = SUPER_MIN_WEIGHT + 404;
    let chain = 2000;
    let n = wide + chain;
    let mut ents = Vec::with_capacity(n + 4 * chain);
    for i in 0..n {
        let v = (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(seed) % 97;
        ents.push((i, i, 2.0 + v as f64 / 97.0));
    }
    for i in wide..n {
        let mut cols: Vec<usize> = (1..4u64)
            .map(|f| ((i as u64 * (2 * f + 5) + seed.wrapping_mul(f)) % wide as u64) as usize)
            .collect();
        if i > wide {
            cols.push(i - 1);
        }
        cols.sort_unstable();
        cols.dedup();
        for j in cols {
            let v = ((i * 31 + j * 17) as u64 ^ seed) % 23;
            ents.push((i, j, (v as f64 - 11.0) / 50.0));
        }
    }
    SparseTri::from_triplets(n, Triangle::Lower, Diag::NonUnit, &ents).unwrap()
}

/// Level and Merged stay bitwise equal to the sequential sweep on a merged
/// schedule that mixes single-level and merged multi-level waves.
#[test]
fn merged_equals_level_bitwise_on_mixed_wave_kinds() {
    for seed in [3u64, 0xfeed_beef] {
        let m = wide_block_then_chain(seed);
        let s = m.schedule();
        let g = m.merged_schedule();
        // (levels, rows) per super-level: one heavy level for the wide
        // block, many skinny levels for each merged run of the chain.
        let waves: Vec<(usize, usize)> = (0..g.num_super_levels())
            .map(|sl| {
                let r = g.super_range(sl);
                let levels = (0..s.num_levels())
                    .filter(|&l| r.contains(&s.level_range(l).start))
                    .count();
                (levels, r.len())
            })
            .collect();
        assert!(
            waves
                .iter()
                .any(|&(l, rows)| l == 1 && rows > SUPER_MIN_WEIGHT)
                && waves.iter().any(|&(l, _)| l > 1),
            "fixture must mix a heavy single-level wave with merged waves: {waves:?}"
        );
        for transpose in [Transpose::No, Transpose::Yes] {
            for k in [1usize, 3] {
                let b = Matrix::from_fn(m.n(), k, |i, j| {
                    ((i * 7 + j * 13 + seed as usize) % 19) as f64 / 9.5 - 1.0
                });
                let base = SolveOpts::new().transpose(transpose);
                let mut seq = b.clone();
                m.solve_multi_with(&base.threads(1), &mut seq).unwrap();
                for t in [2usize, 3, 4] {
                    for policy in [SchedulePolicy::Level, SchedulePolicy::Merged] {
                        let mut x = b.clone();
                        m.solve_multi_with(&base.threads(t).policy(policy), &mut x)
                            .unwrap();
                        assert!(
                            x == seq,
                            "{policy:?} at {t} workers, {transpose:?}, k={k} changed the bits"
                        );
                    }
                }
            }
        }
    }
}
