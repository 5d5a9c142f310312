//! The frozen serving snapshot: an `Arc`-shared, read-only view of a warm
//! [`Lab`] that request threads can query without locks.
//!
//! [`Snapshot::freeze`] materialises every provider the serving surface
//! needs (ontology, the chem embedding table and its int8 twin, the
//! classification forest, WordPiece + mini-BERT weights), then seals the
//! results into plain owned storage: averaged-concat component vectors for
//! every entity and relation, WordPiece id sequences for every component,
//! an `Arc<ForestRun>` handle, and a handle on the lab's pre-trained BERT
//! weights. After freezing, the hot query path touches only
//! immutable memory — `OnceLock::get` fast paths, slice indexing and the
//! SIMD cosine kernels — so any number of threads can share one snapshot
//! ([`Snapshot`] is `Send + Sync` by construction, asserted below).
//!
//! Determinism contract: every query answer is a pure function of the lab
//! seed. The pre-encoded vectors are produced by the *same*
//! [`TokenAvgEncoder`] the serial paths use, the batched scans call the
//! same cosine kernels in the same per-query order, and the BERT weights
//! are the byte-identical pre-trained snapshot — so a batched, multi-thread
//! server returns exactly the bytes a single-threaded loop would.

use crate::compose::{ComponentEncoder, TokenAvgEncoder};
use crate::lab::Lab;
use crate::paradigm::ml::ForestRun;
use crate::task::TaskKind;
use kcb_embed::{EmbeddingModel, EmbeddingTable, QuantizedEmbeddingTable};
use kcb_ontology::Relation;
use kcb_text::wordpiece::special;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// What to seal into a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotSpec {
    /// Task whose canonical split trains the classification forest.
    pub task: TaskKind,
    /// Embedding model backing classification (a name from
    /// [`crate::lab::EMBEDDING_NAMES`]).
    pub model: String,
    /// Adaptation kind for classification (`"none"` / `"naive"` /
    /// `"task-oriented"`).
    pub adapt: String,
    /// Whether to seal the mini-BERT weights for the `bert-cls` path.
    pub bert: bool,
}

impl Default for SnapshotSpec {
    /// Mirrors the `bench-query` classification leg: Task 1, glove-chem,
    /// naive adaptation, with the BERT path enabled.
    fn default() -> Self {
        Self {
            task: TaskKind::RandomNegatives,
            model: "glove-chem".to_string(),
            adapt: "naive".to_string(),
            bert: true,
        }
    }
}

/// Sealed mini-BERT weights. Each serving thread instantiates its own
/// model from them ([`BertWeights::instantiate`]).
pub use crate::lab::BertWeights;

/// An immutable, `Arc`-shareable serving snapshot of a warm lab.
pub struct Snapshot {
    lab: Lab,
    spec: SnapshotSpec,
    quant: QuantizedEmbeddingTable,
    forest: Arc<ForestRun>,
    /// Averaged-concat component vector per entity, row-major
    /// (`n_entities × dim`), produced by the serial encoder at freeze time.
    ent_vecs: Vec<f32>,
    /// Component vector per relation (`Relation::ALL` order).
    rel_vecs: Vec<f32>,
    /// Component width (the embedding dim).
    dim: usize,
    /// WordPiece ids per entity name (no specials), for `bert-cls`.
    ent_ids: Vec<Vec<u32>>,
    /// WordPiece ids per relation phrase.
    rel_ids: Vec<Vec<u32>>,
    bert: Option<BertWeights>,
    artifacts: HashMap<String, Value>,
}

// The whole point of the snapshot: one instance, many request threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
};

impl Snapshot {
    /// Materialises everything `spec` names and freezes it. The snapshot
    /// keeps a handle on `lab`, so the providers outlive the caller's lab.
    pub fn freeze(lab: &Lab, spec: SnapshotSpec) -> Self {
        let _span = kcb_obs::span("serve", "snapshot.freeze");
        let lab = lab.clone();
        let o = lab.ontology();
        let table = lab.glove_chem();
        let quant = QuantizedEmbeddingTable::quantize(table);
        let forest = lab.forest_run(spec.task, &spec.model, &spec.adapt);

        // Pre-encode every component through the serial encoder so the
        // frozen vectors are bit-equal to what `compose::triple_vector`
        // produces on demand.
        let model = lab.embedding(&spec.model);
        let adaptation = lab.adaptation(&spec.adapt, &spec.model);
        let enc = TokenAvgEncoder::new(model, adaptation);
        let dim = enc.dim();
        let n_ent = o.entities().len();
        let mut ent_vecs = vec![0.0f32; n_ent * dim];
        for (i, chunk) in ent_vecs.chunks_mut(dim).enumerate() {
            enc.encode_component(o.name(kcb_ontology::EntityId(i as u32)), chunk);
        }
        let mut rel_vecs = vec![0.0f32; Relation::ALL.len() * dim];
        for (r, chunk) in Relation::ALL.iter().zip(rel_vecs.chunks_mut(dim)) {
            enc.encode_component(r.phrase(), chunk);
        }

        let (ent_ids, rel_ids, bert) = if spec.bert {
            let wp = lab.wordpiece();
            let tk = kcb_text::ChemTokenizer::new();
            let encode = |text: &str| -> Vec<u32> {
                let words = tk.tokenize(text);
                wp.encode_words(words.iter().map(String::as_str))
            };
            let ent_ids = (0..n_ent)
                .map(|i| encode(o.name(kcb_ontology::EntityId(i as u32))))
                .collect();
            let rel_ids = Relation::ALL.iter().map(|r| encode(r.phrase())).collect();
            (ent_ids, rel_ids, Some(lab.bert().1.clone()))
        } else {
            (Vec::new(), Vec::new(), None)
        };

        Self {
            lab,
            spec,
            quant,
            forest,
            ent_vecs,
            rel_vecs,
            dim,
            ent_ids,
            rel_ids,
            bert,
            artifacts: HashMap::new(),
        }
    }

    /// Inserts a pre-rendered artifact payload (the `write_json` wrapper
    /// shape) served by id. Pre-seal only — takes `&mut self`.
    pub fn add_artifact(&mut self, id: impl Into<String>, payload: Value) {
        self.artifacts.insert(id.into(), payload);
    }

    /// The lab the snapshot was frozen from.
    pub fn lab(&self) -> &Lab {
        &self.lab
    }

    /// The freeze specification.
    pub fn spec(&self) -> &SnapshotSpec {
        &self.spec
    }

    /// The sealed f32 nearest-neighbour table (the chem GloVe table).
    pub fn table(&self) -> &EmbeddingTable {
        self.lab.glove_chem()
    }

    /// The sealed int8 twin of [`Snapshot::table`].
    pub fn quant(&self) -> &QuantizedEmbeddingTable {
        &self.quant
    }

    /// The sealed classification forest run.
    pub fn forest(&self) -> &Arc<ForestRun> {
        &self.forest
    }

    /// Sealed BERT weights, when the spec asked for them.
    pub fn bert(&self) -> Option<&BertWeights> {
        self.bert.as_ref()
    }

    /// Entity count (valid subject/object ids are `0..n_entities`).
    pub fn n_entities(&self) -> usize {
        self.ent_vecs.len() / self.dim.max(1)
    }

    /// Component vector width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether `(s, r, o)` names a well-formed triple for this ontology.
    pub fn valid_triple(&self, s: u32, r: u8, o: u32) -> bool {
        let n = self.n_entities() as u32;
        s < n && o < n && (r as usize) < Relation::ALL.len()
    }

    /// A pre-rendered artifact payload by id.
    pub fn artifact(&self, id: &str) -> Option<&Value> {
        self.artifacts.get(id)
    }

    /// Ids of the pre-rendered artifacts, sorted.
    pub fn artifact_ids(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.artifacts.keys().map(String::as_str).collect();
        ids.sort_unstable();
        ids
    }

    /// Embedding-table row for a token: `(vector, in_vocab)`. Out-of-vocab
    /// tokens get the deterministic OOV vector, mirroring the training
    /// paths' policy.
    pub fn embed(&self, token: &str) -> (Vec<f32>, bool) {
        let t = self.table();
        let mut out = vec![0.0f32; t.dim()];
        let lookup = kcb_embed::embed_or_random(t, token, &mut out);
        (out, lookup.in_vocab())
    }

    /// Serial-reference nearest neighbours (delegates to
    /// [`EmbeddingTable::nearest`]).
    pub fn nearest(&self, token: &str, k: usize) -> Vec<(String, f32)> {
        self.table().nearest(token, k)
    }

    /// Serial-reference int8 nearest neighbours.
    pub fn nearest_int8(&self, token: &str, k: usize) -> Vec<(String, f32)> {
        self.quant.nearest(token, k)
    }

    /// Batched nearest-neighbour scan: one pass over the vocabulary serves
    /// every query in `tokens`, loading each candidate row once instead of
    /// once per query. Calls the same cosine kernel with the same operands
    /// as the serial path, so each per-query result is byte-identical to
    /// [`Snapshot::nearest`] / [`Snapshot::nearest_int8`].
    pub fn nearest_batch(
        &self,
        tokens: &[&str],
        k: usize,
        int8: bool,
    ) -> Vec<Vec<(String, f32)>> {
        let vocab = if int8 { self.quant.vocab() } else { self.table().vocab() };
        let n = vocab.len() as u32;
        let qids: Vec<Option<u32>> = tokens.iter().map(|t| vocab.id(t)).collect();
        let mut sims: Vec<Vec<(u32, f32)>> = qids
            .iter()
            .map(|q| {
                q.map(|_| Vec::with_capacity(n.saturating_sub(1) as usize)).unwrap_or_default()
            })
            .collect();
        for i in 0..n {
            for (j, q) in qids.iter().enumerate() {
                let Some(id) = *q else { continue };
                if i == id {
                    continue;
                }
                let s = if int8 {
                    let m = self.quant.matrix();
                    kcb_ml::quant::cosine_i8(m.row(id as usize), m.row(i as usize)) as f32
                } else {
                    let t = self.table();
                    kcb_ml::linalg::cosine(t.vector(id), t.vector(i))
                };
                sims[j].push((i, s));
            }
        }
        sims.into_iter()
            .map(|mut s| {
                // Identical finish to the serial `nearest`: stable sort on
                // the same floats in the same candidate order.
                s.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("NaN similarity"));
                s.truncate(k);
                s.into_iter().map(|(i, v)| (vocab.token(i).to_string(), v)).collect()
            })
            .collect()
    }

    /// Writes the averaged-concat feature vector of `(s, r, o)` into `out`
    /// (sized `3 * dim`) from the pre-encoded components — bit-equal to
    /// [`compose::triple_vector`] through the serial encoder. Returns
    /// `false` (leaving `out` untouched) for out-of-range ids.
    pub fn triple_vector_into(&self, s: u32, r: u8, o: u32, out: &mut [f32]) -> bool {
        if !self.valid_triple(s, r, o) {
            return false;
        }
        let d = self.dim;
        debug_assert_eq!(out.len(), 3 * d);
        let ent = |i: u32| &self.ent_vecs[i as usize * d..(i as usize + 1) * d];
        out[..d].copy_from_slice(ent(s));
        out[d..2 * d].copy_from_slice(&self.rel_vecs[r as usize * d..(r as usize + 1) * d]);
        out[2 * d..].copy_from_slice(ent(o));
        true
    }

    /// Forest positive-class probability for one triple, or `None` for
    /// out-of-range ids.
    pub fn classify(&self, s: u32, r: u8, o: u32) -> Option<f32> {
        let mut v = vec![0.0f32; 3 * self.dim];
        self.triple_vector_into(s, r, o, &mut v).then(|| self.forest.forest.predict_proba(&v))
    }

    /// Batched classification: one scratch vector serves the whole batch.
    /// Per-triple results equal [`Snapshot::classify`] exactly.
    pub fn classify_batch(&self, triples: &[(u32, u8, u32)]) -> Vec<Option<f32>> {
        let mut v = vec![0.0f32; 3 * self.dim];
        triples
            .iter()
            .map(|&(s, r, o)| {
                self.triple_vector_into(s, r, o, &mut v)
                    .then(|| self.forest.forest.predict_proba(&v))
            })
            .collect()
    }

    /// WordPiece id sequence of a triple for the BERT path — bit-equal to
    /// [`compose::triple_token_ids`]. `None` for out-of-range ids or a
    /// snapshot frozen without BERT.
    pub fn bert_token_ids(&self, s: u32, r: u8, o: u32) -> Option<Vec<u32>> {
        if self.bert.is_none() || !self.valid_triple(s, r, o) {
            return None;
        }
        let mut ids = vec![special::CLS];
        for part in [&self.ent_ids[s as usize], &self.rel_ids[r as usize], &self.ent_ids[o as usize]]
        {
            ids.extend_from_slice(part);
            ids.push(special::SEP);
        }
        Some(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::Adaptation;
    use crate::compose;
    use crate::lab::LabConfig;

    fn snapshot() -> (Lab, Snapshot) {
        let lab = Lab::new(LabConfig::tiny());
        let snap = Snapshot::freeze(&lab, SnapshotSpec::default());
        (lab, snap)
    }

    #[test]
    fn frozen_vectors_match_the_serial_encoder() {
        let (lab, snap) = snapshot();
        let o = lab.ontology();
        let enc = TokenAvgEncoder::new(lab.embedding("glove-chem"), Adaptation::Naive);
        let split = lab.split(TaskKind::RandomNegatives);
        let mut out = vec![0.0f32; 3 * snap.dim()];
        for e in split.test.iter().take(16) {
            let t = e.triple;
            let want = compose::triple_vector(o, t, &enc);
            assert!(snap.triple_vector_into(t.subject.0, t.relation.code(), t.object.0, &mut out));
            assert_eq!(out, want, "frozen vector differs for {}", o.render(t));
            let want_ids = compose::triple_token_ids(o, t, lab.wordpiece());
            let got_ids = snap.bert_token_ids(t.subject.0, t.relation.code(), t.object.0).unwrap();
            assert_eq!(got_ids, want_ids);
        }
    }

    #[test]
    fn classify_matches_the_serial_forest_path() {
        let (lab, snap) = snapshot();
        let o = lab.ontology();
        let enc = TokenAvgEncoder::new(lab.embedding("glove-chem"), Adaptation::Naive);
        let forest = lab.forest_run(TaskKind::RandomNegatives, "glove-chem", "naive");
        let split = lab.split(TaskKind::RandomNegatives);
        let triples: Vec<(u32, u8, u32)> = split
            .test
            .iter()
            .take(12)
            .map(|e| (e.triple.subject.0, e.triple.relation.code(), e.triple.object.0))
            .collect();
        let batch = snap.classify_batch(&triples);
        for (e, got) in split.test.iter().take(12).zip(batch) {
            let v = compose::triple_vector(o, e.triple, &enc);
            let want = forest.forest.predict_proba(&v);
            assert_eq!(got, Some(want));
        }
        assert_eq!(snap.classify(0, 0, u32::MAX), None);
        assert_eq!(snap.classify(0, 200, 0), None);
    }

    #[test]
    fn batched_nn_equals_the_serial_scan() {
        let (_lab, snap) = snapshot();
        let vocab = snap.table().vocab();
        let toks: Vec<String> =
            (0..8.min(vocab.len()) as u32).map(|i| vocab.token(i).to_string()).collect();
        let mut queries: Vec<&str> = toks.iter().map(String::as_str).collect();
        queries.push("definitely-not-a-token");
        for int8 in [false, true] {
            let batch = snap.nearest_batch(&queries, 10, int8);
            for (q, got) in queries.iter().zip(&batch) {
                let want = if int8 { snap.nearest_int8(q, 10) } else { snap.nearest(q, 10) };
                assert_eq!(*got, want, "int8={int8} query={q}");
            }
            assert!(batch.last().unwrap().is_empty(), "OOV query yields no neighbours");
        }
    }

    #[test]
    fn bert_weights_rebuild_byte_identical_models() {
        let (lab, snap) = snapshot();
        let handle = snap.bert().expect("spec sealed bert");
        let local = handle.instantiate();
        let (shared, _) = lab.bert();
        let ids = snap.bert_token_ids(0, 0, 1).unwrap();
        assert_eq!(local.predict_proba(&ids), shared.predict_proba(&ids));
    }

    #[test]
    fn artifacts_are_served_by_id() {
        let lab = Lab::new(LabConfig::tiny());
        let mut snap = Snapshot::freeze(
            &lab,
            SnapshotSpec { bert: false, ..SnapshotSpec::default() },
        );
        assert!(snap.bert().is_none());
        assert_eq!(snap.bert_token_ids(0, 0, 1), None);
        snap.add_artifact("table2", serde_json::json!({"id": "table2"}));
        assert!(snap.artifact("table2").is_some());
        assert!(snap.artifact("nope").is_none());
        assert_eq!(snap.artifact_ids(), vec!["table2"]);
    }
}
