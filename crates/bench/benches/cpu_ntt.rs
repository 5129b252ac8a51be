//! Wall-clock benchmarks of the scalar transform implementations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntt_core::engine::{NttExecutor, ThreadPolicy};
use ntt_core::{ct, radix, NttTable, RnsPoly, RnsRing};
use std::hint::black_box;

fn input(n: usize, p: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) % p)
        .collect()
}

fn bench_forward_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_forward_ntt");
    g.sample_size(20);
    for log_n in [10u32, 12, 14] {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, 60).unwrap();
        let a = input(n, table.modulus());

        g.bench_with_input(BenchmarkId::new("ct_strict", log_n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                ct::ntt(black_box(&mut x), &table);
                x
            })
        });
        g.bench_with_input(BenchmarkId::new("ct_lazy", log_n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                ct::ntt_lazy(black_box(&mut x), &table);
                x
            })
        });
        g.bench_with_input(BenchmarkId::new("high_radix_16", log_n), &a, |b, a| {
            b.iter(|| {
                let mut x = a.clone();
                radix::high_radix_ntt(black_box(&mut x), &table, 16);
                x
            })
        });
    }
    g.finish();
}

fn bench_roundtrip_and_multiply(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_ntt_pipeline");
    g.sample_size(20);
    let n = 1 << 12;
    let ring = ntt_core::NegacyclicRing::new_with_bits(n, 60).unwrap();
    let table = NttTable::new_with_bits(n, 60).unwrap();
    let a = input(n, table.modulus());

    g.bench_function("ntt_intt_roundtrip_4096", |b| {
        b.iter(|| {
            let mut x = a.clone();
            ct::ntt(&mut x, &table);
            ct::intt(&mut x, &table);
            x
        })
    });

    let pa = ntt_core::Polynomial::from_coeffs(a.clone(), n);
    let pb = ntt_core::Polynomial::from_coeffs(input(n, ring.modulus()), n);
    // `ring.multiply` now routes through the fused lazy engine; the seed's
    // strict pipeline is benchmarked alongside for an in-run comparison.
    g.bench_function("negacyclic_multiply_4096", |b| {
        b.iter(|| ring.multiply(black_box(&pa), black_box(&pb)))
    });
    g.bench_function("negacyclic_multiply_strict_4096", |b| {
        b.iter(|| {
            let mut na = pa.coeffs().to_vec();
            let mut nb = pb.coeffs().to_vec();
            ct::ntt(&mut na, &table);
            ct::ntt(&mut nb, &table);
            let mut prod: Vec<u64> = na
                .iter()
                .zip(&nb)
                .map(|(&x, &y)| ntt_math::mul_mod(x, y, table.modulus()))
                .collect();
            ct::intt(&mut prod, &table);
            prod
        })
    });

    g.finish();
}

/// The paper's batched workload shape: one RNS polynomial product over
/// `np = 8` primes at `N = 2^13` — strict legacy pipeline (the seed code
/// path: clone, per-stage reduction, `u128 %` pointwise) vs the fused
/// lazy engine, single-threaded and residue-parallel.
fn bench_rns_multiply(c: &mut Criterion) {
    let mut g = c.benchmark_group("rns_multiply_n8192_np8");
    g.sample_size(10);
    let n = 1usize << 13;
    let np = 8;
    let primes = ntt_math::ntt_primes(55, 2 * n as u64, np);
    let ring = RnsRing::new(n, primes.clone()).unwrap();
    let mut a = RnsPoly::zero(&ring);
    let mut b = RnsPoly::zero(&ring);
    for (i, &p) in primes.iter().enumerate() {
        a.row_mut(i).copy_from_slice(&input(n, p));
        let mut rhs = input(n, p);
        rhs.reverse();
        b.row_mut(i).copy_from_slice(&rhs);
    }

    g.bench_function("strict_legacy", |bch| {
        bch.iter(|| {
            let mut out = RnsPoly::zero(&ring);
            for i in 0..np {
                let t = ring.ring(i).table();
                let mut na = a.row(i).to_vec();
                let mut nb = b.row(i).to_vec();
                ct::ntt(&mut na, t);
                ct::ntt(&mut nb, t);
                let mut prod: Vec<u64> = na
                    .iter()
                    .zip(&nb)
                    .map(|(&x, &y)| ntt_math::mul_mod(x, y, t.modulus()))
                    .collect();
                ct::intt(&mut prod, t);
                out.row_mut(i).copy_from_slice(&prod);
            }
            out
        })
    });

    let mut ex1 = NttExecutor::new(ThreadPolicy::Single);
    let mut out = RnsPoly::zero(&ring);
    g.bench_function("fused_1thread", |bch| {
        bch.iter(|| {
            ex1.rns_multiply_into(&ring, black_box(&a), black_box(&b), &mut out);
            out.row(0)[0]
        })
    });

    let mut exn = NttExecutor::new(ThreadPolicy::Auto);
    g.bench_function("fused_auto_threads", |bch| {
        bch.iter(|| {
            exn.rns_multiply_into(&ring, black_box(&a), black_box(&b), &mut out);
            out.row(0)[0]
        })
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_forward_variants,
    bench_roundtrip_and_multiply,
    bench_rns_multiply
);
criterion_main!(benches);
