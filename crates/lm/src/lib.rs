//! Mini transformer language models.
//!
//! From-scratch BERT-style encoder and GPT-style decoder used as the
//! PubmedBERT and BioGPT stand-ins (see DESIGN.md): real multi-head
//! attention, pre-LayerNorm blocks, GELU feed-forward, learned positions,
//! masked-LM / causal-LM pre-training, classification fine-tuning and
//! contextual [CLS] embeddings — at laptop scale (a few layers, d ≈ 64).
//!
//! The numerical core is [`tensor`], a small reverse-mode autograd over the
//! dense matrices from `kcb-ml`. Models are deterministic functions of
//! their configs and seeds.

pub mod ckpt;
pub mod decoder;
pub mod encoder;
pub mod optim;
pub mod schedule;
pub mod tensor;
pub mod transformer;

/// Thread-pool policy now lives in `kcb-util` so the cell scheduler and the
/// forest can share it; re-exported here so `kcb_lm::pool::*` paths keep
/// working.
pub use kcb_util::pool;

pub use decoder::{MiniGpt, MiniGptConfig};
pub use encoder::{MiniBert, MiniBertConfig};
pub use transformer::{TrainConfig, TransformerConfig};

// Models cross threads: the cell scheduler trains and queries them on any
// worker, and serving threads share them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MiniBert>();
    assert_send_sync::<MiniGpt>();
};
