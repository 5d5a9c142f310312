//! BioGPT-mini: the paper's BioGPT arm, reproduced *generatively*.
//!
//! Unlike GPT-3.5/4 (behavioural oracles), this adapter really runs the
//! few-shot prompt through a small causal LM: the prompt is WordPiece-
//! encoded, the `kcb-lm` decoder generates a continuation under
//! temperature sampling, the text is decoded and handed to the same parser
//! as every other model. A small domain-pretrained, non-instruction-tuned
//! CLM mechanically reproduces the paper's BioGPT findings: near-chance
//! accuracy, a large unclassified fraction and kappa ≈ 0.

use crate::protocol::{PromptContext, PromptedModel};
use kcb_lm::MiniGpt;
use kcb_text::{ChemTokenizer, WordPiece};
use kcb_util::Rng;

/// A generative few-shot classifier wrapping a mini causal LM.
pub struct BioGptMini {
    name: String,
    gpt: MiniGpt,
    wordpiece: WordPiece,
    tokenizer: ChemTokenizer,
    /// Sampling temperature for continuations.
    pub temperature: f32,
    /// Tokens to generate per response.
    pub max_new_tokens: usize,
}

impl BioGptMini {
    /// Wraps a (typically domain-pretrained) decoder and its WordPiece
    /// vocabulary.
    pub fn new(gpt: MiniGpt, wordpiece: WordPiece) -> Self {
        Self {
            name: "biogpt-mini".to_string(),
            gpt,
            wordpiece,
            tokenizer: ChemTokenizer::new(),
            temperature: 0.7,
            max_new_tokens: 12,
        }
    }

    /// The underlying decoder.
    pub fn gpt_model(&self) -> &MiniGpt {
        &self.gpt
    }

    /// The WordPiece vocabulary in use.
    pub fn wordpiece(&self) -> &WordPiece {
        &self.wordpiece
    }

    /// Encodes text into LM token ids (chem pre-tokenization + WordPiece).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let words = self.tokenizer.tokenize(text);
        self.wordpiece.encode_words(words.iter().map(String::as_str))
    }
}

impl PromptedModel for BioGptMini {
    fn name(&self) -> &str {
        &self.name
    }

    fn respond(&self, ctx: &PromptContext<'_>, rng: &mut Rng) -> String {
        let mut ids = self.encode(ctx.prompt_text);
        if ids.is_empty() {
            ids.push(kcb_text::wordpiece::special::CLS);
        }
        let out = self.gpt.generate(&ids, self.max_new_tokens, self.temperature, rng);
        self.wordpiece.decode(&out)
    }
}

// One pre-trained model answers prompts from any scheduler worker.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BioGptMini>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_response, Answer};
    use crate::prompt::{FewShotExample, PromptBuilder, PromptVariant};
    use crate::protocol::{run_protocol, PromptItem};
    use kcb_lm::{MiniGptConfig, TransformerConfig};
    use kcb_text::WordPieceTrainer;
    use std::collections::HashMap;

    fn tiny_biogpt() -> BioGptMini {
        // Train a small WordPiece over prompt-ish vocabulary.
        let mut counts: HashMap<String, u64> = HashMap::new();
        for w in [
            "true", "false", "triple", "classification", "your", "task", "is", "to", "classify",
            "triples", "as", "or", "acid", "oxan", "role", "has", "a",
        ] {
            counts.insert(w.to_string(), 20);
        }
        let wp = WordPieceTrainer { target_vocab: 160, min_pair_count: 1 }.train(&counts);
        let gpt = MiniGpt::new(MiniGptConfig {
            arch: TransformerConfig {
                vocab_size: wp.vocab_size(),
                d_model: 16,
                n_heads: 2,
                n_layers: 1,
                d_ff: 32,
                max_len: 32,
                seed: 3,
            },
        });
        BioGptMini::new(gpt, wp)
    }

    fn fixtures() -> (PromptBuilder, Vec<PromptItem>) {
        let pos = (0..3)
            .map(|i| FewShotExample { text: format!("acid {i} has role oxan"), label: true })
            .collect();
        let neg = (0..3)
            .map(|i| FewShotExample { text: format!("oxan {i} has role acid"), label: false })
            .collect();
        let items = (0..20)
            .map(|i| PromptItem {
                text: format!("acid triple {i}"),
                label: i % 2 == 0,
                task: 1,
                key: i as u64,
            })
            .collect();
        (PromptBuilder::new(pos, neg), items)
    }

    #[test]
    fn generates_and_parses_end_to_end() {
        let model = tiny_biogpt();
        let (b, items) = fixtures();
        let r = run_protocol(&model, &b, &items, PromptVariant::Base, 3, 1);
        // An untrained tiny CLM behaves like the paper's BioGPT: at or near
        // chance, with low consistency.
        assert!(r.accuracy_mean < 0.75, "untrained CLM suspiciously good: {}", r.accuracy_mean);
        assert!(r.kappa < 0.6, "untrained CLM suspiciously consistent: {}", r.kappa);
    }

    #[test]
    fn untrained_model_often_unparseable() {
        let model = tiny_biogpt();
        let mut rng = Rng::seed(5);
        let mut unparseable = 0;
        for i in 0..30 {
            let prompt = format!("classify triple {i} as true or false");
            let ids = model.encode(&prompt);
            let out = model.gpt.generate(&ids, 6, 0.9, &mut rng);
            let text = model.wordpiece.decode(&out);
            if parse_response(&text) == Answer::Unparseable {
                unparseable += 1;
            }
        }
        assert!(unparseable > 5, "expected plenty of garbage, got {unparseable}/30");
    }

    #[test]
    fn encode_round_trips_known_words() {
        let model = tiny_biogpt();
        let ids = model.encode("true false");
        assert!(!ids.is_empty());
        let text = model.wordpiece.decode(&ids);
        assert_eq!(text, "true false");
    }
}
