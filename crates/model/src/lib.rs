//! # mocha-model
//!
//! CNN workload substrate for the MOCHA accelerator simulator: layer IR with
//! derived shapes, a network zoo (LeNet-5, AlexNet, VGG-16 and synthetic
//! sweeps), dense tensors in the fabric's native i8/i32 fixed-point format,
//! seeded sparsity-controlled generators replacing proprietary trained
//! weights, and a bit-exact golden reference executor that every simulated
//! dataflow is verified against. The golden model lowers every conv,
//! depthwise and pointwise layer to a patch matrix, one row per output
//! pixel, and reduces each output as one dot product with its filter.
//!
//! ```
//! use mocha_model::{gen::{SparsityProfile, Workload}, golden, network};
//!
//! let workload = Workload::generate(network::lenet5(), SparsityProfile::NOMINAL, 42);
//! let feature_maps = golden::forward(&workload);
//! assert_eq!(feature_maps.last().unwrap().shape().c, 10); // 10 classes
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod elastic;
pub mod gen;
pub mod golden;
pub mod layer;
pub mod network;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use accounting::OpTraffic;
pub use elastic::{ElasticFamily, ElasticStage};
pub use gen::{SparsityProfile, Workload};
pub use layer::{Layer, LayerKind, PoolKind};
pub use network::Network;
pub use rng::ModelRng;
pub use shape::{KernelShape, TensorShape};
pub use tensor::{Kernel, Tensor};
