//! The artifact cell DAG: decomposes the requested tables/figures into
//! provider jobs (ontology, datasets, corpora, embeddings, LM
//! checkpoints), warm cells keyed by `(artifact-family, paradigm, task,
//! scenario, model, adaptation)`, and one assembly job per artifact, then
//! executes the whole graph on the [`crate::sched`] work-stealing
//! scheduler. Every job — PubmedBERT forests, fine-tuning and BioGPT
//! prompting included — may run on any worker.
//!
//! Warm cells populate the [`Lab`] memo caches (forest runs, LSTM runs,
//! scenario scores, the triple-encoding cache); the assembly jobs then
//! re-run the ordinary [`crate::experiment::run`] runners, which hit those
//! caches and emit artifacts in the *same canonical order and bytes* at
//! any worker count — every cached value is a pure function of the lab
//! seed, never of scheduling. Cells shared by several artifacts (e.g. the
//! fine-tuned-BERT series of Figures 3/A2, or the Task-1 forest grid
//! reused by Tables 3a/A7 and Figures 2/A1) are deduplicated by key, so
//! requesting `all` runs each cell exactly once.

use super::{scenarios, supervised};
use crate::dataset::SCENARIOS;
use crate::journal;
use crate::lab::{Lab, EMBEDDING_NAMES};
use crate::report::Artifact;
use crate::sched::{Graph, JobDone, JobId, RunReport};
use crate::task::TaskKind;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// What a scheduled run did, for `results/run_meta.json`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlanReport {
    /// Scheduler execution record (per-job timings, steals, wall time).
    pub scheduler: RunReport,
    /// Lab memo-cache counters (memoised scores and forest runs).
    pub cache: crate::lab::CacheStats,
    /// Triple-encoding cache: `(hits, misses)` row lookups.
    pub encoding_hits: usize,
    /// See `encoding_hits`.
    pub encoding_misses: usize,
    /// Distinct triple vectors cached across all encoders.
    pub encoding_entries: usize,
    /// Encoding-cache shard-lock acquisitions that found the lock held.
    pub encoding_contended: usize,
    /// Persistent checkpoint lookups this run, in order (empty when the
    /// lab has no store attached).
    pub checkpoints: Vec<crate::ckpt::CkptEvent>,
    /// What the run journal did (all zeros when journaling is off).
    pub journal: JournalStats,
}

/// Journal activity of one scheduled run, for `run_meta.json` and the
/// run-index manifest.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct JournalStats {
    /// Whether a journal was attached to this run.
    pub enabled: bool,
    /// Completion records appended (and fsynced) by this run.
    pub appended: u64,
    /// Jobs satisfied from the journal instead of executed (no-op cells
    /// plus artifacts replayed byte-for-byte from persisted payloads).
    pub replayed: u64,
    /// Whether this run resumed a journal with prior records.
    pub resume: bool,
    /// Damaged-suffix warnings emitted while loading the journal.
    pub warnings: u64,
}

/// Journal attachment for a scheduled run.
pub struct JournalSpec {
    /// The run directory, `results/runs/<config-digest>/`.
    pub dir: PathBuf,
    /// Injected fault, checked after each journaled completion.
    pub fault: Option<journal::FaultPlan>,
}

/// Which providers one graph instantiation actually schedules. The full
/// artifact path wants everything ([`ProviderNeed::all`]); the sweep
/// compiler unions the (much smaller) per-variant needs so a lab whose
/// variants never touch an LM never schedules its training job.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProviderNeed {
    /// Embedding providers to schedule, by table name.
    pub embeds: Vec<&'static str>,
    /// Schedule the canonical 9:1 split providers?
    pub splits: bool,
    /// Schedule the WordPiece provider?
    pub wordpiece: bool,
    /// Schedule mini-BERT pretraining (implies `wordpiece`)?
    pub bert: bool,
    /// Schedule BioGPT-mini pretraining (implies `wordpiece`)?
    pub biogpt: bool,
}

impl ProviderNeed {
    /// Everything — the single-run artifact path.
    pub fn all() -> Self {
        Self {
            embeds: EMBEDDING_NAMES.to_vec(),
            splits: true,
            wordpiece: true,
            bert: true,
            biogpt: true,
        }
    }

    /// Folds another need into this one (sweep labs union their variants).
    pub fn union(&mut self, other: &ProviderNeed) {
        for e in &other.embeds {
            if !self.embeds.contains(e) {
                self.embeds.push(e);
            }
        }
        self.splits |= other.splits;
        self.wordpiece |= other.wordpiece || other.bert || other.biogpt;
        self.bert |= other.bert;
        self.biogpt |= other.biogpt;
    }
}

/// Per-job input provenance, collected while the graph is built and
/// written into each journal completion record: providers record their
/// own content-addressed checkpoint key, cells and assemblies record the
/// config digest plus each dependency's content key. `repro runs diff`
/// reads these back to say *which* inputs changed between two runs.
#[derive(Debug, Default)]
pub(crate) struct Provenance {
    /// Provider label → its own content key.
    content: HashMap<String, String>,
    /// Job label → journal input entries (`name=key`).
    inputs: HashMap<String, Vec<String>>,
}

impl Provenance {
    /// Records a provider job: its content key (falling back to the
    /// config digest for providers without one) is both its own input
    /// entry and what consumers fold into theirs.
    fn provider(&mut self, label: &str, key: Option<String>, cfg_digest: &str) {
        let key = key.unwrap_or_else(|| cfg_digest.to_string());
        self.inputs.insert(label.to_string(), vec![format!("self={key}")]);
        self.content.insert(label.to_string(), key);
    }

    /// Records a cell or assembly job: the config digest plus one entry
    /// per dependency (`dep-label=content-key`; `-` for dependencies that
    /// have no content key of their own, e.g. other cells).
    pub(crate) fn job<S: AsRef<str>>(&mut self, label: &str, cfg_digest: &str, dep_labels: &[S]) {
        let mut v = vec![format!("cfg={cfg_digest}")];
        for d in dep_labels {
            let d = d.as_ref();
            let key = self.content.get(d).map(String::as_str).unwrap_or("-");
            v.push(format!("{d}={key}"));
        }
        self.inputs.insert(label.to_string(), v);
    }

    /// The journal input entries for a label (empty when unrecorded).
    pub fn inputs_of(&self, label: &str) -> &[String] {
        self.inputs.get(label).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Provider job ids shared by every artifact. Providers outside the
/// instantiating [`ProviderNeed`] are `None`; the accessors panic if a
/// cell asks for a provider its need never declared.
pub(crate) struct Providers {
    ontology: JobId,
    task: [JobId; 3],
    split: Option<[JobId; 3]>,
    embed: HashMap<&'static str, JobId>,
    wordpiece: Option<JobId>,
    bert: Option<JobId>,
    biogpt: Option<JobId>,
}

impl Providers {
    fn ontology(&self) -> JobId {
        self.ontology
    }

    fn task(&self, i: usize) -> JobId {
        self.task[i]
    }

    fn split(&self, i: usize) -> JobId {
        self.split.expect("split providers not planned")[i]
    }

    fn splits(&self) -> Vec<JobId> {
        self.split.expect("split providers not planned").to_vec()
    }

    fn embed(&self, name: &str) -> JobId {
        *self.embed.get(name).unwrap_or_else(|| panic!("embed provider {name} not planned"))
    }

    fn embeds(&self) -> Vec<JobId> {
        self.embed.values().copied().collect()
    }

    fn wordpiece(&self) -> JobId {
        self.wordpiece.expect("wordpiece provider not planned")
    }

    fn bert(&self) -> JobId {
        self.bert.expect("bert provider not planned")
    }

    fn biogpt(&self) -> JobId {
        self.biogpt.expect("biogpt provider not planned")
    }
}

/// Schedules the provider jobs a need declares, labelled
/// `provider:<prefix><name>`. The ontology, corpora and task datasets are
/// always present (corpora degrade to no-op jobs when nothing trains);
/// splits, embeddings and the LMs appear only when needed. The empty
/// prefix reproduces the single-run graph byte-for-byte; the sweep
/// compiler namespaces each lab's providers by a config-digest prefix so
/// journal replay keys stay stable across resumes.
pub(crate) fn providers<'a>(
    g: &mut Graph<'a>,
    lab: &'a Lab,
    prefix: &str,
    need: &ProviderNeed,
    provenance: &mut Provenance,
) -> Providers {
    let cfg_digest = lab.config_digest();

    // Cache-aware DAG pruning: freshness is probed *once, at graph-build
    // time*. A provider whose checkpoint is known-fresh becomes a
    // dependency-free no-op job (kept in the graph so timelines and
    // run_meta keep their labels) that only counts the skip; the first
    // consumer decodes lazily — with the raw mmap containers that decode
    // is a borrow, and artifact subsets that never touch the provider pay
    // nothing at all. Pruning the edges (not just the job bodies) also
    // lets the corpus generators be skipped whenever every trained
    // consumer is fresh, which is every warm run — not just `--fast`.
    let wp_fresh = lab.provider_fresh("wordpiece");
    // The LM keys fold in the WordPiece vocabulary size, so probing them
    // materialises WordPiece. Only probe when that materialisation is a
    // cheap checkpoint decode — a cold run must never train WordPiece
    // serially at plan time.
    let bert_fresh = wp_fresh && lab.provider_fresh("lm-bert");
    let biogpt_fresh = wp_fresh && lab.provider_fresh("lm-biogpt");
    let embed_fresh: HashMap<&'static str, bool> = need
        .embeds
        .iter()
        .map(|&n| (n, n != "random" && lab.provider_fresh(&format!("embed-{n}"))))
        .collect();
    let any_embed_training = need.embeds.iter().any(|&n| n != "random" && !embed_fresh[n]);
    // The corpora exist only to feed trainers; when every trainer that
    // reads them is fresh (or out of scope for this need), generating
    // them eagerly is pure waste.
    let wp_training = need.wordpiece && !wp_fresh;
    let bert_training = need.bert && !bert_fresh;
    let biogpt_training = need.biogpt && !biogpt_fresh;
    let domain_needed = any_embed_training || wp_training || bert_training || biogpt_training;
    let generic_needed = any_embed_training || bert_training;

    let record = |provenance: &mut Provenance, label: &str, name: &str| {
        provenance.provider(label, lab.provider_input_key(name), &cfg_digest);
    };

    let olabel = format!("provider:{prefix}ontology");
    record(provenance, &olabel, "ontology");
    let ontology = g.add(olabel, &[], move || {
        lab.ontology();
    });
    let dlabel = format!("provider:{prefix}corpus-domain");
    record(provenance, &dlabel, "corpus-domain");
    let domain = if domain_needed {
        g.add(dlabel, &[ontology], move || {
            lab.domain_sentences();
        })
    } else {
        g.add(dlabel, &[], move || {
            lab.note_provider_skip();
        })
    };
    let glabel = format!("provider:{prefix}corpus-generic");
    record(provenance, &glabel, "corpus-generic");
    let generic = if generic_needed {
        g.add(glabel, &[], move || {
            lab.generic_sentences();
        })
    } else {
        g.add(glabel, &[], move || {
            lab.note_provider_skip();
        })
    };
    let task: [JobId; 3] = TaskKind::ALL.map(|t| {
        let label = format!("provider:{prefix}task{}", t.number());
        record(provenance, &label, &format!("task{}", t.number()));
        g.add(label, &[ontology], move || {
            lab.task(t);
        })
    });
    let split: Option<[JobId; 3]> = need.splits.then(|| {
        [0, 1, 2].map(|i| {
            let t = TaskKind::ALL[i];
            let label = format!("provider:{prefix}split{}", t.number());
            record(provenance, &label, &format!("split{}", t.number()));
            g.add(label, &[task[i]], move || {
                lab.split(t);
            })
        })
    });
    let mut embed = HashMap::new();
    for name in need.embeds.iter().copied() {
        let fresh = embed_fresh[name];
        let deps: &[JobId] =
            if name == "random" || fresh { &[] } else { &[domain, generic] };
        let label = format!("provider:{prefix}embed-{name}");
        record(provenance, &label, &format!("embed-{name}"));
        let id = g.add(label, deps, move || {
            if fresh {
                lab.note_provider_skip();
            } else {
                lab.embedding(name);
            }
        });
        embed.insert(name, id);
    }
    let wordpiece = (need.wordpiece || need.bert || need.biogpt).then(|| {
        let wp_deps: &[JobId] = if wp_fresh { &[] } else { &[domain] };
        let label = format!("provider:{prefix}wordpiece");
        record(provenance, &label, "wordpiece");
        g.add(label, wp_deps, move || {
            if wp_fresh {
                lab.note_provider_skip();
            } else {
                lab.wordpiece();
            }
        })
    });
    let bert = need.bert.then(|| {
        let wp = wordpiece.expect("bert implies wordpiece");
        let bert_deps: &[JobId] = if bert_fresh { &[] } else { &[wp, domain, generic] };
        let label = format!("provider:{prefix}bert");
        record(provenance, &label, "bert");
        g.add(label, bert_deps, move || {
            if bert_fresh {
                lab.note_provider_skip();
            } else {
                lab.bert();
            }
        })
    });
    let biogpt = need.biogpt.then(|| {
        let wp = wordpiece.expect("biogpt implies wordpiece");
        let biogpt_deps: &[JobId] = if biogpt_fresh { &[] } else { &[wp, domain] };
        let label = format!("provider:{prefix}biogpt");
        record(provenance, &label, "biogpt");
        g.add(label, biogpt_deps, move || {
            if biogpt_fresh {
                lab.note_provider_skip();
            } else {
                lab.biogpt();
            }
        })
    });
    Providers { ontology, task, split, embed, wordpiece, bert, biogpt }
}

/// Builds warm cells for one artifact id and returns the assembly deps.
/// Cells are deduplicated across artifacts through `keyed`.
pub(crate) struct Cells<'g, 'a> {
    pub g: &'g mut Graph<'a>,
    pub keyed: &'g mut HashMap<String, JobId>,
    pub lab: &'a Lab,
    pub prov: &'g Providers,
    /// Labels the run journal already recorded as completed.
    pub completed: &'g HashSet<String>,
    /// Labels satisfied from the journal this run (fills as cells are
    /// replaced by replay no-ops; the completion hook skips these).
    pub replayed: &'g mut HashSet<String>,
    /// Label namespace (empty for single runs, `<digest8>/` per sweep lab).
    pub prefix: &'g str,
    /// Input-provenance collector for journal records.
    pub provenance: &'g mut Provenance,
    /// The lab's config digest, folded into every cell's provenance.
    pub cfg_digest: &'g str,
}

impl<'a> Cells<'_, 'a> {
    fn dedup(&mut self, key: String, deps: &[JobId], f: impl FnOnce() + Send + 'a) -> JobId {
        if let Some(&id) = self.keyed.get(&key) {
            return id;
        }
        let label = format!("cell:{}{key}", self.prefix);
        // Journal replay: a cell that already committed in an earlier
        // (interrupted) run becomes a dependency-free no-op. Cells only
        // warm the memo caches — their values come back through the
        // derived checkpoint, and any cold miss is recomputed inline by
        // the assembly runner — so skipping them can never change bytes.
        let id = if self.completed.contains(&label) {
            self.replayed.insert(label.clone());
            self.g.add(label, &[], || {})
        } else {
            let dep_labels: Vec<String> =
                deps.iter().map(|&d| self.g.label_of(d).to_string()).collect();
            self.provenance.job(&label, self.cfg_digest, &dep_labels);
            self.g.add(label, deps, f)
        };
        self.keyed.insert(key, id);
        id
    }

    /// The provider a supervised model's encoder reads.
    fn encoder_provider(&self, model: &str) -> JobId {
        if model == "pubmedbert" {
            self.prov.bert()
        } else {
            self.prov.embed(model)
        }
    }

    fn forest(&mut self, task: TaskKind, model: &'static str, adapt: &'static str) -> JobId {
        let key = format!("forest|{}|{model}|{adapt}", task.number());
        let deps = [self.prov.split(task.number() - 1), self.encoder_provider(model)];
        let lab = self.lab;
        self.dedup(key, &deps, move || {
            lab.forest_run(task, model, adapt);
        })
    }

    fn lstm(&mut self, model: &'static str) -> JobId {
        let deps = [self.prov.split(0), self.prov.embed(model)];
        let lab = self.lab;
        self.dedup(format!("lstm|{model}"), &deps, move || {
            lab.lstm_run(model);
        })
    }

    pub(crate) fn scenario_rf(
        &mut self,
        task: TaskKind,
        sc_index: usize,
        model: &'static str,
        adapt: &'static str,
    ) -> JobId {
        let sc = SCENARIOS[sc_index];
        let key = format!("rf|{}|{}|{}|{model}|{adapt}", task.number(), sc.split, sc.pos_ratio);
        let deps = [self.prov.task(task.number() - 1), self.encoder_provider(model)];
        let lab = self.lab;
        self.dedup(key, &deps, move || {
            scenarios::scenario_cell(lab, task, sc, model, adapt);
        })
    }

    pub(crate) fn scenario_ft(&mut self, task: TaskKind, sc_index: usize) -> JobId {
        let sc = SCENARIOS[sc_index];
        let key = format!("ft|{}|{}|{}", task.number(), sc.split, sc.pos_ratio);
        let deps = [self.prov.task(task.number() - 1), self.prov.bert()];
        let lab = self.lab;
        self.dedup(key, &deps, move || {
            scenarios::ft_f1(lab, task, sc);
        })
    }

    /// An ICL paradigm cell: scenario-independent by construction (the
    /// paper's horizontal reference line — in-context learning consumes
    /// no training data), so every scenario variant of an oracle shares
    /// one cell.
    pub(crate) fn icl(&mut self, task: TaskKind, oracle: &'static str) -> JobId {
        let key = format!("icl|{}|{oracle}", task.number());
        let mut deps = vec![self.prov.task(task.number() - 1)];
        if oracle == "biogpt-mini" {
            deps.push(self.prov.biogpt());
        }
        let lab = self.lab;
        self.dedup(key, &deps, move || {
            scenarios::icl_stats(lab, task, oracle);
        })
    }

    fn gpt4(&mut self, task: TaskKind) -> JobId {
        let deps = [self.prov.task(task.number() - 1)];
        let lab = self.lab;
        self.dedup(format!("gpt4|{}", task.number()), &deps, move || {
            scenarios::gpt4_f1(lab, task);
        })
    }

    /// The dependency set for one artifact id: warm cells where the
    /// artifact has them, otherwise the providers its runner touches.
    fn deps_for(&mut self, id: &str) -> Vec<JobId> {
        let p_all_embeds: Vec<JobId> = self.prov.embeds();
        let supervised_models =
            || EMBEDDING_NAMES.iter().copied().chain(["pubmedbert"]).collect::<Vec<_>>();
        match id {
            "table2" | "tablea2" | "tablea3" => self.prov.splits(),
            "tablea1" => vec![self.prov.ontology()],
            // Corpus / OOV statistics touch the tokenizer and embeddings.
            "tablea4" | "tablea5" => {
                let mut d = vec![self.prov.wordpiece()];
                d.extend(p_all_embeds);
                d
            }
            "table3a" => {
                let mut d = Vec::new();
                for adapt in ["none", "naive", "task-oriented"] {
                    for model in supervised_models() {
                        if supervised::adaptations_for(model).contains(&adapt) {
                            d.push(self.forest(TaskKind::RandomNegatives, model, adapt));
                        }
                    }
                }
                d
            }
            "table3b" => {
                let mut d = Vec::new();
                for task in [TaskKind::FlippedNegatives, TaskKind::SiblingNegatives] {
                    for model in supervised_models() {
                        let adapt = if model == "pubmedbert" { "none" } else { "naive" };
                        d.push(self.forest(task, model, adapt));
                    }
                }
                d
            }
            "tablea7" => {
                let mut d = Vec::new();
                for task in [TaskKind::FlippedNegatives, TaskKind::SiblingNegatives] {
                    for adapt in ["naive", "task-oriented"] {
                        for model in supervised_models() {
                            if supervised::adaptations_for(model).contains(&adapt) {
                                d.push(self.forest(task, model, adapt));
                            }
                        }
                    }
                }
                d
            }
            "tablea6" => EMBEDDING_NAMES.iter().map(|m| self.lstm(m)).collect(),
            "fig2" => {
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    for model in EMBEDDING_NAMES {
                        d.push(self.forest(task, model, "naive"));
                    }
                }
                d
            }
            "figa1" => {
                let mut d = Vec::new();
                for model in ["random", "biowordvec", "glove-chem"] {
                    for adapt in supervised::adaptations_for(model) {
                        d.push(self.forest(TaskKind::RandomNegatives, model, adapt));
                    }
                }
                d
            }
            "fig3" | "figa2" => {
                let models: Vec<(&'static str, &'static str)> = if id == "fig3" {
                    vec![("random", "naive"), ("glove-chem", "task-oriented"), ("pubmedbert", "none")]
                } else {
                    EMBEDDING_NAMES
                        .iter()
                        .map(|&m| (m, "naive"))
                        .chain([("pubmedbert", "none")])
                        .collect()
                };
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    d.push(self.gpt4(task));
                    for s in 0..SCENARIOS.len() {
                        for &(model, adapt) in &models {
                            d.push(self.scenario_rf(task, s, model, adapt));
                        }
                        d.push(self.scenario_ft(task, s));
                    }
                }
                d
            }
            "table4" => {
                let mut d = self.prov.splits();
                d.push(self.prov.bert());
                d
            }
            "table5" => {
                let mut d = self.prov.splits();
                d.push(self.prov.biogpt());
                d
            }
            "table6" => {
                let mut d = Vec::new();
                for task in TaskKind::ALL {
                    for (model, adapt) in
                        [("glove-chem", "naive"), ("w2v-chem", "naive"), ("pubmedbert", "none")]
                    {
                        d.push(self.forest(task, model, adapt));
                    }
                }
                d.push(self.prov.bert());
                d
            }
            "summary" => {
                let mut d = vec![
                    self.forest(TaskKind::RandomNegatives, "random", "none"),
                    self.forest(TaskKind::RandomNegatives, "glove", "none"),
                    self.forest(TaskKind::RandomNegatives, "glove", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 0, "random", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 4, "random", "naive"),
                    self.scenario_rf(TaskKind::RandomNegatives, 4, "glove-chem", "naive"),
                    self.scenario_rf(TaskKind::SiblingNegatives, 4, "random", "naive"),
                    self.prov.bert(),
                    self.prov.biogpt(),
                ];
                for task in TaskKind::ALL {
                    d.push(self.forest(task, "w2v-chem", "naive"));
                }
                d
            }
            // Ablations rebuild their own corpora/forests; they only share
            // the base providers.
            id if id.starts_with("ablation-") => {
                let mut d = vec![self.prov.ontology(), self.prov.split(0)];
                d.extend(p_all_embeds);
                d
            }
            // Extensions and anything not modelled above: all providers, so the
            // runner only does its own novel work.
            _ => {
                let mut d = self.prov.splits();
                d.push(self.prov.bert());
                d.push(self.prov.biogpt());
                d
            }
        }
    }
}

/// Runs the given artifact ids through the cell scheduler with `workers`
/// threads and returns `(artifacts in request order, run report)`.
/// Unknown ids are skipped (mirroring [`crate::experiment::run`]).
pub fn run_scheduled(
    lab: &Lab,
    ids: &[&str],
    workers: usize,
) -> (Vec<(String, Artifact)>, PlanReport) {
    run_scheduled_with(lab, ids, workers, None)
}

/// [`run_scheduled`] with an optional run journal attached: completed
/// jobs from an interrupted run are marked satisfied at graph-build time
/// (cells become no-ops, artifacts replay byte-for-byte from persisted
/// payloads), and every job this run completes is appended to the journal
/// — fsynced before the job's dependents can observe its result — so the
/// *next* interruption loses at most the job in flight.
pub fn run_scheduled_with(
    lab: &Lab,
    ids: &[&str],
    workers: usize,
    spec: Option<&JournalSpec>,
) -> (Vec<(String, Artifact)>, PlanReport) {
    let journal = RunJournal::open(spec);
    let completed = journal.completed();
    let mut replayed: HashSet<String> = HashSet::new();
    let ids: Vec<String> = ids.iter().map(|s| s.to_ascii_lowercase()).collect();
    let slots: Vec<OnceLock<Artifact>> = ids.iter().map(|_| OnceLock::new()).collect();

    let mut g = Graph::new();
    let mut provenance = Provenance::default();
    let cfg_digest = lab.config_digest();
    let prov = providers(&mut g, lab, "", &ProviderNeed::all(), &mut provenance);
    let mut keyed: HashMap<String, JobId> = HashMap::new();
    let mut cells = Cells {
        g: &mut g,
        keyed: &mut keyed,
        lab,
        prov: &prov,
        completed: &completed,
        replayed: &mut replayed,
        prefix: "",
        provenance: &mut provenance,
        cfg_digest: &cfg_digest,
    };
    for (id, slot) in ids.iter().zip(&slots) {
        let owned = id.clone();
        journal.add_artifact(&mut cells, id, slot, |c| c.deps_for(id), move || {
            super::run(lab, &owned)
        });
    }

    let run_span = kcb_obs::span("sched", "graph:run")
        .arg("jobs", g.len())
        .arg("workers", workers);
    let (scheduler, jstats) = journal.run(g, workers, &replayed, &provenance);
    run_span.end();

    let artifacts: Vec<(String, Artifact)> = ids
        .into_iter()
        .zip(slots)
        .filter_map(|(id, slot)| slot.into_inner().map(|a| (id, a)))
        .collect();
    let (encoding_hits, encoding_misses) = lab.encodings().hit_miss();
    let report = PlanReport {
        scheduler,
        cache: lab.cache_stats(),
        encoding_hits,
        encoding_misses,
        encoding_entries: lab.encodings().len(),
        encoding_contended: lab.encodings().contended(),
        checkpoints: lab.checkpoint_store().map(|s| s.events()).unwrap_or_default(),
        journal: jstats,
    };
    record_counters(&report);
    (artifacts, report)
}

/// One run's journal side, shared by the single-run path and the sweep
/// compiler: the replay state loaded at graph-build time, the writer the
/// completion hook appends through, and the digests of the artifacts
/// assembled this run.
pub(crate) struct RunJournal<'s> {
    spec: Option<&'s JournalSpec>,
    stats: JournalStats,
    writer: Option<journal::Writer>,
    replay: journal::Replay,
    /// Filled by the assembly jobs, read by the completion hook right
    /// after, so the journal records each artifact's payload checksum.
    digests: Mutex<HashMap<String, String>>,
}

impl<'s> RunJournal<'s> {
    /// Opens the run journal named by `spec` and loads its replay state.
    /// A `None` spec (journaling off) and an unopenable journal file both
    /// degrade to a disabled writer.
    pub(crate) fn open(spec: Option<&'s JournalSpec>) -> Self {
        let mut stats = JournalStats::default();
        let mut writer: Option<journal::Writer> = None;
        let mut replay = journal::Replay::default();
        if let Some(spec) = spec {
            stats.enabled = true;
            let path = journal::journal_path(&spec.dir);
            replay = journal::load(&path);
            if let Some(w) = &replay.warning {
                eprintln!("warning: {w}");
                stats.warnings += 1;
            }
            stats.resume = !replay.records.is_empty();
            match journal::Writer::open(&path, replay.records.len() as u64) {
                Ok(w) => writer = Some(w),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open journal {} ({e}); journaling off",
                        path.display()
                    );
                    stats.enabled = false;
                }
            }
        }
        Self { spec, stats, writer, replay, digests: Mutex::new(HashMap::new()) }
    }

    /// Labels the journal already recorded as completed.
    pub(crate) fn completed(&self) -> HashSet<String> {
        self.replay.completed()
    }

    /// Pushes the assembly job of artifact `id`, whose output lands in
    /// `slot`. An artifact whose assembly already committed is re-emitted
    /// from its persisted payload, verified against the journaled digest,
    /// with no dependencies. Otherwise `deps` schedules its cells and the
    /// job runs `build`; when journaling, it persists the payload and
    /// refreshes the derived checkpoint, so a resumed run finds the memo
    /// caches its no-op cells warmed.
    pub(crate) fn add_artifact<'g, 'a>(
        &'a self,
        cells: &mut Cells<'g, 'a>,
        id: &str,
        slot: &'a OnceLock<Artifact>,
        deps: impl FnOnce(&mut Cells<'g, 'a>) -> Vec<JobId>,
        build: impl FnOnce() -> Option<Artifact> + Send + 'a,
    ) {
        let label = format!("artifact:{id}");
        // Verification failure (deleted / corrupted payload) falls back
        // to ordinary reassembly.
        let replayed = self.spec.and_then(|s| {
            self.replay.digest_of(&label).and_then(|want| load_artifact(&s.dir, id, want))
        });
        if let Some(a) = replayed {
            cells.replayed.insert(label.clone());
            cells.g.add(label, &[], move || {
                let _ = slot.set(a);
            });
            return;
        }
        let mut deps = deps(cells);
        deps.sort_unstable();
        deps.dedup();
        let dep_labels: Vec<String> =
            deps.iter().map(|&d| cells.g.label_of(d).to_string()).collect();
        cells.provenance.job(&label, cells.cfg_digest, &dep_labels);
        let (lab, id) = (cells.lab, id.to_string());
        let dir = self.spec.map(|s| s.dir.as_path());
        let digests = &self.digests;
        cells.g.add(label.clone(), &deps, move || {
            let art = build();
            if let Some(dir) = dir {
                if let Some(a) = &art {
                    match persist_artifact(dir, &id, a) {
                        Ok(fnv) => {
                            digests.lock().expect("digest table").insert(label, fnv);
                        }
                        Err(e) => eprintln!("warning: artifact payload persist failed: {e}"),
                    }
                }
                lab.save_checkpoints();
            }
            if let Some(a) = art {
                let _ = slot.set(a);
            }
        });
    }

    /// Runs the graph with the completion hook attached and returns the
    /// scheduler report plus this run's journal activity. The hook
    /// appends a job together with its input provenance only when the
    /// record adds information — a label the journal lacks, or an
    /// artifact reassembled to a different digest — so re-running a
    /// journaled config appends nothing. Then the injected fault gets a
    /// chance to kill the process at this exact boundary.
    pub(crate) fn run(
        &self,
        g: Graph<'_>,
        workers: usize,
        replayed: &HashSet<String>,
        provenance: &Provenance,
    ) -> (RunReport, JournalStats) {
        // Later records win: the latest digest per label.
        let latest: HashMap<&str, &str> =
            self.replay.records.iter().map(|r| (r.label.as_str(), r.digest.as_str())).collect();
        let hook = |d: &JobDone<'_>| {
            let Some(w) = &self.writer else { return };
            if replayed.contains(d.label) {
                return;
            }
            let digest = self.digests.lock().expect("digest table").get(d.label).cloned();
            let digest = digest.unwrap_or_default();
            if latest.get(d.label) == Some(&digest.as_str()) {
                return;
            }
            let inputs = provenance.inputs_of(d.label);
            let n = w.append(d.label, d.kind, &digest, d.seconds, d.worker, inputs);
            if let Some(f) = self.spec.and_then(|s| s.fault) {
                f.check(n);
            }
        };
        let scheduler = g.run_hooked(workers, self.writer.is_some().then_some(&hook as _));
        let stats = JournalStats {
            appended: self.writer.as_ref().map(journal::Writer::appended).unwrap_or(0),
            replayed: replayed.len() as u64,
            ..self.stats.clone()
        };
        (scheduler, stats)
    }
}

/// Persists one assembled artifact's replay payload under the run
/// directory (tmp + rename, so a crash mid-write can never leave a
/// payload that passes the digest check) and returns its FNV-64.
fn persist_artifact(dir: &Path, id: &str, a: &Artifact) -> std::io::Result<String> {
    let path = journal::artifact_path(dir, id);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let body = a.to_replay_json().render_json(None);
    let fnv = journal::fnv64_hex(body.as_bytes());
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &body)?;
    std::fs::rename(&tmp, &path)?;
    Ok(fnv)
}

/// Loads a persisted artifact payload when its bytes still match the
/// journaled digest `want`; otherwise `None` (caller reassembles).
fn load_artifact(dir: &Path, id: &str, want: &str) -> Option<Artifact> {
    let path = journal::artifact_path(dir, id);
    let text = std::fs::read_to_string(&path).ok()?;
    if journal::fnv64_hex(text.as_bytes()) != want {
        eprintln!(
            "warning: journal replay: {} no longer matches its journaled digest; reassembling",
            path.display()
        );
        return None;
    }
    Artifact::from_replay_json(&kcb_util::json::parse_value(&text).ok()?)
}

/// Publishes the run's cache counters to the telemetry recorder so they
/// land in the exported trace / run metadata alongside the span timeline.
pub(crate) fn record_counters(r: &PlanReport) {
    if !kcb_obs::enabled() {
        return;
    }
    for (name, v) in [
        ("encoding.hits", r.encoding_hits),
        ("encoding.misses", r.encoding_misses),
        ("encoding.entries", r.encoding_entries),
        ("encoding.contended", r.encoding_contended),
        ("memo.hits", r.cache.memo_hits),
        ("memo.misses", r.cache.memo_misses),
        ("forest_cache.hits", r.cache.forest_hits),
        ("forest_cache.misses", r.cache.forest_misses),
        ("provider.skips", r.cache.provider_skips),
    ] {
        kcb_obs::counter(name, v as u64);
    }
    if r.journal.enabled {
        kcb_obs::counter("journal.replayed", r.journal.replayed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabConfig;

    fn payloads(arts: &[(String, Artifact)]) -> Vec<(String, String)> {
        arts.iter().map(|(id, a)| (id.clone(), a.to_replay_json().render_json(None))).collect()
    }

    #[test]
    fn rerunning_a_journaled_config_appends_nothing() {
        const IDS: [&str; 2] = ["table2", "tablea6"];
        let dir = std::env::temp_dir().join(format!("kcb-plan-rerun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = JournalSpec { dir: dir.clone(), fault: None };
        let path = journal::journal_path(&dir);

        let (first, r1) = run_scheduled_with(&Lab::new(LabConfig::tiny()), &IDS, 2, Some(&spec));
        let journaled = journal::load(&path);
        assert_eq!(r1.journal.appended, journaled.records.len() as u64);

        let (second, r2) = run_scheduled_with(&Lab::new(LabConfig::tiny()), &IDS, 2, Some(&spec));
        assert!(r2.journal.resume);
        assert_eq!(r2.journal.appended, 0, "a complete journal gains no records");
        assert!(r2.journal.replayed >= IDS.len() as u64, "artifacts replay from payloads");
        assert_eq!(payloads(&first), payloads(&second));
        let replay = journal::load(&path);
        assert_eq!(replay.records.len(), journaled.records.len());
        for id in IDS {
            let label = format!("artifact:{id}");
            assert_eq!(replay.digest_of(&label), journaled.digest_of(&label), "{label}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
