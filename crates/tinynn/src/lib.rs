//! # tinynn — minimal neural-network substrate
//!
//! The learning machinery the HELCFL reproduction trains with: a
//! row-major `f32` matrix with register-blocked GEMM kernels (and
//! AVX2 / AVX-512 paths behind one dispatch point), dense ReLU MLPs
//! with a softmax cross-entropy head, full-batch gradient descent
//! (paper Eq. 3), and the flat-parameter view federated averaging
//! (Eq. 18) requires.
//!
//! There is one forward/backward implementation: the fused kernels
//! running into a reusable [`model::TrainScratch`], with no heap
//! allocation at steady state. [`model::Mlp::train_step_with`] trains,
//! [`model::Mlp::count_correct_rows`] scores, and
//! [`model::Mlp::forward_with`] returns the logits. The unfused
//! layer-by-layer chain lives under `tests/` as their bit-exact oracle.
//!
//! Modules: [`tensor`] (the matrix and its kernels), [`simd`] (the
//! kernel path dispatch), [`layer`] (one dense layer), [`activation`]
//! (the ReLU derivative), [`loss`] (softmax cross-entropy, Eq. 1),
//! [`init`] (seeded weight initialization), [`model`] (the MLP) and
//! [`error`].
//!
//! Everything is deterministic given a seed and entirely
//! dependency-free (randomness comes from the workspace's own
//! `detrand` crate) — see DESIGN.md §3/§4 for why the reproduction
//! substitutes an MLP for SqueezeNet.
//!
//! ## Quick tour
//!
//! ```
//! use tinynn::model::{Mlp, TrainScratch};
//! use tinynn::tensor::Matrix;
//!
//! let mut model = Mlp::new(&[2, 8, 2], 42)?;
//! let mut scratch = TrainScratch::for_model(&model)?;
//! let x = Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]])?;
//! let y = [0usize, 1];
//! for _ in 0..100 {
//!     model.train_step_with(&x, &y, 0.5, &mut scratch)?;
//! }
//! assert_eq!(model.count_correct_rows(&x, 0, 2, &y, &mut scratch)?, 2);
//! # Ok::<(), tinynn::NnError>(())
//! ```

// `deny`, not `forbid`: the `simd` module opts back in (module-local
// `#![allow]`) for the std::arch intrinsic kernels. Everything else in
// the crate stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod error;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod simd;
pub mod tensor;

pub use error::{NnError, Result};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::tensor::Matrix>();
        assert_send_sync::<crate::model::Mlp>();
        assert_send_sync::<crate::NnError>();
    }
}
