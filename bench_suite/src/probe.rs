//! The host-speed probe.
//!
//! On a shared virtual machine the same code can run tens of percent
//! slower for minutes at a time while other tenants load the physical
//! machine (see the README). The probe is fixed work that lives in the
//! benchmark, so no change to the repository's crates makes it faster
//! or slower. A run times it after every repetition and multiplies
//! every timing by [`REFERENCE_NS`] over the probe's median: timings
//! then read as on a host where the probe takes [`REFERENCE_NS`], and a
//! slow phase cancels as far as it slows the workload and the probe
//! alike.
//!
//! A sample is the geometric mean of two halves: 64×64 `f32` matrix
//! products in the L1 cache, which the training rounds resemble, and
//! dependent loads over a 64 MiB random cycle, as the population
//! workload's selection and gathers are.

use std::hint::black_box;
use std::time::Instant;

use detrand::Rng;

/// The probe's median sample on the reference host (a quiet 2-vCPU
/// Intel Xeon with AVX-512): the speed every timing is scaled to.
pub const REFERENCE_NS: f64 = 17.5e6;

/// Side of the compute half's square matrices.
const N: usize = 64;
/// Matrix products per compute half.
const PRODUCTS: u32 = 700;
/// Entries of the load cycle: 2^24 `u32`s, 64 MiB, more than the
/// last-level cache holds.
const CYCLE_LEN: usize = 1 << 24;
/// Dependent loads per memory half.
const LOADS: u32 = 150_000;

/// A matrix aligned to cache lines, so the compute half's speed does
/// not depend on where the allocator placed it.
#[repr(align(64))]
struct Mat([[f32; N]; N]);

/// The probe's fixed inputs.
pub struct Probe {
    a: Box<Mat>,
    b: Box<Mat>,
    c: Box<Mat>,
    /// `next[i]` is the entry after `i` in one random cycle through
    /// every index.
    next: Vec<u32>,
    cursor: u32,
}

impl Probe {
    /// Builds the inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut random_mat = || {
            let mut m = Box::new(Mat([[0.0; N]; N]));
            for x in m.0.iter_mut().flatten() {
                *x = rng.uniform_f32(-1.0, 1.0);
            }
            m
        };
        let a = random_mat();
        let b = random_mat();
        // Sattolo's shuffle: a single cycle, so the walk never
        // settles into a short loop that fits in a cache.
        let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
        for i in (1..CYCLE_LEN).rev() {
            next.swap(i, rng.below(i));
        }
        Self {
            a,
            b,
            c: Box::new(Mat([[0.0; N]; N])),
            next,
            cursor: 0,
        }
    }

    /// Bytes the probe keeps resident, which the workload's peak memory
    /// leaves out.
    pub fn bytes(&self) -> u64 {
        (self.next.len() * std::mem::size_of::<u32>() + 3 * std::mem::size_of::<Mat>()) as u64
    }

    /// Times one sample, in nanoseconds.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        for _ in 0..PRODUCTS {
            matmul(black_box(&self.a), black_box(&self.b), &mut self.c);
            black_box(&self.c);
        }
        let compute = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let mut i = self.cursor;
        for _ in 0..LOADS {
            i = self.next[i as usize];
        }
        self.cursor = black_box(i);
        let memory = t.elapsed().as_nanos() as f64;
        (compute * memory).sqrt() as u64
    }
}

/// `c = a · b`.
fn matmul(a: &Mat, b: &Mat, c: &mut Mat) {
    for (c_row, a_row) in c.0.iter_mut().zip(&a.0) {
        c_row.fill(0.0);
        for (&a_ik, b_row) in a_row.iter().zip(&b.0) {
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
}
