//! # tinynn — minimal neural-network substrate
//!
//! The learning machinery the HELCFL reproduction trains with: a
//! row-major `f32` matrix, dense ReLU MLPs with a softmax
//! cross-entropy head, full-batch gradient descent (paper Eq. 3), and
//! the flat-parameter view federated averaging (Eq. 18) requires.
//!
//! Everything is deterministic given a seed and entirely
//! dependency-free (randomness comes from the workspace's own
//! `detrand` crate) — see DESIGN.md §3/§4 for why the reproduction
//! substitutes an MLP for SqueezeNet.
//!
//! ## Quick tour
//!
//! ```
//! use tinynn::model::Mlp;
//! use tinynn::tensor::Matrix;
//!
//! let mut model = Mlp::new(&[2, 8, 2], 42)?;
//! let x = Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, -1.0]])?;
//! let y = [0usize, 1];
//! for _ in 0..100 {
//!     model.train_step(&x, &y, 0.5)?;
//! }
//! assert_eq!(model.accuracy(&x, &y)?, 1.0);
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
pub mod metrics;
pub mod model;
pub mod optim;
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
