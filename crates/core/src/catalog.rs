//! The Mosaic catalog: the three relation kinds of the paper's data model
//! (§3.1) plus population metadata (§3.2).

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_sql::{Expr, MechanismSpec};
use mosaic_stats::Marginal;
use mosaic_storage::{Schema, Table, TableBuilder, Value};

use crate::{MosaicError, Result};

/// A known sampling mechanism: the inclusion probability of a tuple,
/// defined with respect to the global population (§3).
#[derive(Debug, Clone, PartialEq)]
pub enum Mechanism {
    /// Uniform sampling: every GP tuple kept with probability
    /// `percent/100`, so the inverse-probability weight is `100/percent`.
    Uniform {
        /// Sample percentage of the GP.
        percent: f64,
    },
    /// Stratified sampling on one attribute; within stratum `h` the weight
    /// is `N_h / n_h` where `N_h` comes from a marginal over the
    /// stratification attribute (falling back to `100/percent` when no
    /// such marginal exists).
    Stratified {
        /// Stratification attribute.
        attr: String,
        /// Sample percentage of the GP.
        percent: f64,
    },
}

impl From<&MechanismSpec> for Mechanism {
    fn from(spec: &MechanismSpec) -> Self {
        match spec {
            MechanismSpec::Uniform { percent } => Mechanism::Uniform { percent: *percent },
            MechanismSpec::Stratified { attr, percent } => Mechanism::Stratified {
                attr: attr.clone(),
                percent: *percent,
            },
        }
    }
}

/// A population relation: a set of tuples that *could* exist but is not
/// fully known to Mosaic (§3.1).
#[derive(Debug, Clone)]
pub struct Population {
    /// Population name.
    pub name: String,
    /// Attribute schema.
    pub schema: Arc<Schema>,
    /// True for the global population (GP).
    pub global: bool,
    /// For derived populations: `(global population name, defining
    /// predicate)` — the population is a view over the GP.
    pub source: Option<(String, Option<Expr>)>,
}

/// A sample relation: tuples that do exist in the GP and that Mosaic has
/// access to, with engine-managed weights (§3.1–3.2).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Sample name.
    pub name: String,
    /// Reference population (usually the GP).
    pub population: String,
    /// Defining predicate over the population (`CREATE SAMPLE … WHERE`).
    pub predicate: Option<Expr>,
    /// Declared sampling mechanism, if known.
    pub mechanism: Option<Mechanism>,
    /// Ingested tuples.
    pub data: Table,
    /// Tuple weights, "initialized to be one for every tuple" (§3.2).
    pub weights: Vec<f64>,
}

impl Sample {
    /// Number of ingested tuples.
    pub fn len(&self) -> usize {
        self.data.num_rows()
    }

    /// True if nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A named marginal bound to a population (§3.2).
#[derive(Debug, Clone)]
pub struct MetadataEntry {
    /// Metadata name (paper convention `<pop>_M1`).
    pub name: String,
    /// Population this metadata describes.
    pub population: String,
    /// The marginal itself.
    pub marginal: Marginal,
}

/// The Mosaic catalog: auxiliary tables, populations, samples, metadata.
#[derive(Debug, Default)]
pub struct Catalog {
    aux: HashMap<String, Table>,
    populations: HashMap<String, Population>,
    samples: HashMap<String, Sample>,
    metadata: Vec<MetadataEntry>,
    global_population: Option<String>,
    /// Bumped on any mutation that invalidates cached generative models.
    pub(crate) epoch: u64,
    /// Per-relation write epochs: for each relation (or metadata) name,
    /// the value of `epoch` at its last mutation. A cached artifact that
    /// reads a set of relations is valid iff every one of their epochs is
    /// unchanged. Entries survive `DROP` (the drop *is* a mutation), so a
    /// dropped-and-recreated relation never matches a stale epoch.
    relation_epochs: HashMap<String, u64>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Populations and samples expose their correction weights as the
/// column `weight`, so neither may declare an attribute of that name
/// (in any case): it would shadow the weights.
fn reject_weight_attribute(kind: &str, name: &str, schema: &Schema) -> Result<()> {
    if schema.contains("weight") {
        return Err(MosaicError::Catalog(format!(
            "{kind} {name} cannot declare an attribute named weight: `weight` is the \
             reserved column the engine exposes correction weights as"
        )));
    }
    Ok(())
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Record a mutation of `name`: advance the global epoch and stamp
    /// the relation with it. Every write path calls this under the
    /// engine's catalog write lock, so epoch reads taken under the read
    /// lock are consistent with the data they describe.
    fn bump(&mut self, name: &str) {
        self.epoch += 1;
        self.relation_epochs.insert(key(name), self.epoch);
    }

    /// The write epoch of a relation (or metadata entry): the global
    /// epoch at its last mutation, `0` if it has never been written.
    /// Epochs are never reused — a `DROP` bumps the name too — so two
    /// equal epochs for a name always describe the same catalog state.
    pub fn relation_epoch(&self, name: &str) -> u64 {
        self.relation_epochs.get(&key(name)).copied().unwrap_or(0)
    }

    /// Register an auxiliary table, replacing any previous one of the same
    /// name.
    pub fn create_aux(&mut self, name: &str, table: Table) -> Result<()> {
        self.ensure_name_free(name, Kind::Aux)?;
        self.aux.insert(key(name), table);
        self.bump(name);
        Ok(())
    }

    /// Fetch an auxiliary table.
    pub fn aux(&self, name: &str) -> Option<&Table> {
        self.aux.get(&key(name))
    }

    /// Replace an auxiliary table's contents (INSERT target).
    pub fn replace_aux(&mut self, name: &str, table: Table) -> Result<()> {
        if !self.aux.contains_key(&key(name)) {
            return Err(MosaicError::Catalog(format!("unknown table {name}")));
        }
        self.aux.insert(key(name), table);
        self.bump(name);
        Ok(())
    }

    /// Register a population. Only one GLOBAL population may exist (the
    /// paper: "we assume the user defines only one GP").
    pub fn create_population(&mut self, pop: Population) -> Result<()> {
        self.ensure_name_free(&pop.name, Kind::Population)?;
        reject_weight_attribute("population", &pop.name, &pop.schema)?;
        if pop.global {
            if let Some(gp) = &self.global_population {
                return Err(MosaicError::Catalog(format!(
                    "a global population already exists: {gp}"
                )));
            }
            self.global_population = Some(pop.name.clone());
        } else {
            let (gp, _) = pop.source.as_ref().ok_or_else(|| {
                MosaicError::Catalog(format!(
                    "non-global population {} must be defined AS a SELECT over the global population",
                    pop.name
                ))
            })?;
            if self.population(gp).is_none() {
                return Err(MosaicError::Catalog(format!(
                    "unknown global population {gp}"
                )));
            }
        }
        let name = pop.name.clone();
        self.populations.insert(key(&pop.name), pop);
        self.bump(&name);
        Ok(())
    }

    /// Fetch a population.
    pub fn population(&self, name: &str) -> Option<&Population> {
        self.populations.get(&key(name))
    }

    /// The global population, if declared.
    pub fn global_population(&self) -> Option<&Population> {
        self.global_population
            .as_deref()
            .and_then(|n| self.population(n))
    }

    /// Register a sample over an existing population.
    pub fn create_sample(&mut self, sample: Sample) -> Result<()> {
        self.ensure_name_free(&sample.name, Kind::Sample)?;
        reject_weight_attribute("sample", &sample.name, sample.data.schema())?;
        if self.population(&sample.population).is_none() {
            return Err(MosaicError::Catalog(format!(
                "unknown population {} for sample {}",
                sample.population, sample.name
            )));
        }
        let (name, population) = (sample.name.clone(), sample.population.clone());
        self.samples.insert(key(&sample.name), sample);
        // A new sample changes what population-level queries (SEMI-OPEN
        // weight combination, OPEN model training) can see, so the
        // reference population is a dependency that must move too.
        self.bump(&name);
        self.bump(&population);
        Ok(())
    }

    /// Fetch a sample.
    pub fn sample(&self, name: &str) -> Option<&Sample> {
        self.samples.get(&key(name))
    }

    /// Append rows to a sample; new tuples get weight 1.
    pub fn append_to_sample(&mut self, name: &str, rows: Table) -> Result<()> {
        let s = self
            .samples
            .get_mut(&key(name))
            .ok_or_else(|| MosaicError::Catalog(format!("unknown sample {name}")))?;
        let added = rows.num_rows();
        s.data = if s.data.is_empty() {
            // Adopt incoming schema when the sample was declared without
            // explicit fields.
            if s.data.schema().is_empty() {
                rows
            } else {
                s.data.concat(&rows)?
            }
        } else {
            s.data.concat(&rows)?
        };
        s.weights.extend(std::iter::repeat_n(1.0, added));
        let population = s.population.clone();
        self.bump(name);
        self.bump(&population);
        Ok(())
    }

    /// Overwrite a sample's weights (user-initialized weights, §3.2).
    pub fn set_sample_weights(&mut self, name: &str, weights: Vec<f64>) -> Result<()> {
        let s = self
            .samples
            .get_mut(&key(name))
            .ok_or_else(|| MosaicError::Catalog(format!("unknown sample {name}")))?;
        if weights.len() != s.len() {
            return Err(MosaicError::Execution(format!(
                "weight vector length {} does not match sample size {}",
                weights.len(),
                s.len()
            )));
        }
        // IPF and the weighted aggregates take weights as given: a negative,
        // NaN or infinite one would turn into a wrong answer, not an error.
        if let Some((i, w)) = weights
            .iter()
            .enumerate()
            .find(|(_, w)| !w.is_finite() || **w < 0.0)
        {
            return Err(MosaicError::Execution(format!(
                "weight {w} at index {i} of sample {name} is not a finite non-negative number"
            )));
        }
        s.weights = weights;
        let population = s.population.clone();
        self.bump(name);
        self.bump(&population);
        Ok(())
    }

    /// Register metadata for a population.
    pub fn create_metadata(&mut self, entry: MetadataEntry) -> Result<()> {
        if self.population(&entry.population).is_none() {
            return Err(MosaicError::Catalog(format!(
                "unknown population {} for metadata {}",
                entry.population, entry.name
            )));
        }
        if self
            .metadata
            .iter()
            .any(|m| m.name.eq_ignore_ascii_case(&entry.name))
        {
            return Err(MosaicError::Catalog(format!(
                "metadata {} already exists",
                entry.name
            )));
        }
        let (name, population) = (entry.name.clone(), entry.population.clone());
        self.metadata.push(entry);
        // Marginals feed SEMI-OPEN re-weighting and OPEN model training,
        // so new metadata is a write against its population as well.
        self.bump(&name);
        self.bump(&population);
        Ok(())
    }

    /// All marginals bound to a population.
    pub fn metadata_for(&self, population: &str) -> Vec<&MetadataEntry> {
        self.metadata
            .iter()
            .filter(|m| m.population.eq_ignore_ascii_case(population))
            .collect()
    }

    /// Resolve a metadata name's target population: an explicit `FOR`
    /// binding wins; otherwise the paper's `<pop>_<suffix>` convention is
    /// applied (longest existing population prefix before an underscore).
    pub fn infer_metadata_population(&self, metadata_name: &str) -> Option<String> {
        let mut candidate: Option<&Population> = None;
        let lower = metadata_name.to_ascii_lowercase();
        for pop in self.populations.values() {
            let p = pop.name.to_ascii_lowercase();
            if lower
                .strip_prefix(&p)
                .is_some_and(|rest| rest.starts_with('_'))
                && candidate.is_none_or(|c| c.name.len() < pop.name.len())
            {
                candidate = Some(pop);
            }
        }
        candidate.map(|p| p.name.clone())
    }

    /// Every registered relation as a `(name, kind)` pair, sorted by
    /// name; kind is `"table"`, `"population"`, or `"sample"`. Drives
    /// the CLI's `.tables` listing and the unknown-relation error's
    /// "available relations" hint.
    pub fn relations(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = self
            .aux
            .keys()
            .map(|n| (n.clone(), "table"))
            .chain(
                self.populations
                    .values()
                    .map(|p| (p.name.clone(), "population")),
            )
            .chain(self.samples.values().map(|s| (s.name.clone(), "sample")))
            .collect();
        out.sort_by_key(|r| r.0.to_ascii_lowercase());
        out
    }

    /// Sorted names of every registered relation.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations().into_iter().map(|(n, _)| n).collect()
    }

    /// Samples whose reference population is `population`.
    pub fn samples_for(&self, population: &str) -> Vec<&Sample> {
        self.samples
            .values()
            .filter(|s| s.population.eq_ignore_ascii_case(population))
            .collect()
    }

    /// Drop any relation (table, population, sample) or metadata by name.
    /// The drop bumps the dropped name's epoch (and, for samples and
    /// metadata, their reference population's), so cached plans and
    /// results over it are invalidated exactly like any other write.
    pub fn drop_any(&mut self, name: &str) -> Result<()> {
        let k = key(name);
        if self.aux.remove(&k).is_some() {
            self.bump(name);
            return Ok(());
        }
        if let Some(s) = self.samples.remove(&k) {
            self.bump(name);
            self.bump(&s.population);
            return Ok(());
        }
        if self.populations.remove(&k).is_some() {
            if self.global_population.as_deref().map(key) == Some(k) {
                self.global_population = None;
            }
            self.bump(name);
            return Ok(());
        }
        let mut dropped_population: Option<String> = None;
        self.metadata.retain(|m| {
            if m.name.eq_ignore_ascii_case(name) {
                dropped_population = Some(m.population.clone());
                false
            } else {
                true
            }
        });
        if let Some(population) = dropped_population {
            self.bump(name);
            self.bump(&population);
            return Ok(());
        }
        Err(MosaicError::Catalog(format!("unknown relation {name}")))
    }

    fn ensure_name_free(&self, name: &str, kind: Kind) -> Result<()> {
        let k = key(name);
        let clash = match kind {
            // Auxiliary tables may be re-created (paper: TEMPORARY).
            Kind::Aux => self.populations.contains_key(&k) || self.samples.contains_key(&k),
            _ => {
                self.aux.contains_key(&k)
                    || self.populations.contains_key(&k)
                    || self.samples.contains_key(&k)
            }
        };
        if clash {
            Err(MosaicError::Catalog(format!(
                "relation {name} already exists"
            )))
        } else {
            Ok(())
        }
    }
}

enum Kind {
    Aux,
    Population,
    Sample,
}

/// Build an empty table for a declared schema (used when a sample is
/// declared before ingestion).
pub(crate) fn empty_table(schema: Arc<Schema>) -> Table {
    TableBuilder::new(schema).finish()
}

/// Convert a `(keys…, count)` result table into a [`Marginal`].
pub(crate) fn marginal_from_table(table: &Table) -> Result<Marginal> {
    if table.num_columns() < 2 {
        return Err(MosaicError::Execution(
            "metadata query must produce key column(s) plus a count column".into(),
        ));
    }
    let key_cols = table.num_columns() - 1;
    let attrs: Vec<String> = (0..key_cols)
        .map(|i| table.schema().field(i).name.clone())
        .collect();
    let mut m = Marginal::new(attrs);
    let count_col = table.column(key_cols);
    for row in 0..table.num_rows() {
        let count = count_col.f64_at(row).ok_or_else(|| {
            MosaicError::Execution("metadata count column must be numeric".into())
        })?;
        let key: Vec<Value> = (0..key_cols).map(|c| table.value(row, c)).collect();
        m.add(key, count);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field};

    fn pop(name: &str, global: bool) -> Population {
        Population {
            name: name.into(),
            schema: Schema::new(vec![Field::new("a", DataType::Int)]),
            global,
            source: if global {
                None
            } else {
                Some(("GP".into(), None))
            },
        }
    }

    #[test]
    fn only_one_global_population() {
        let mut c = Catalog::new();
        c.create_population(pop("GP", true)).unwrap();
        assert!(c.create_population(pop("GP2", true)).is_err());
        assert_eq!(c.global_population().unwrap().name, "GP");
    }

    #[test]
    fn derived_population_needs_source() {
        let mut c = Catalog::new();
        assert!(c
            .create_population(Population {
                source: None,
                ..pop("P", false)
            })
            .is_err());
        c.create_population(pop("GP", true)).unwrap();
        c.create_population(pop("P", false)).unwrap();
        assert!(c.population("p").is_some());
    }

    #[test]
    fn weight_is_reserved_on_populations_and_samples() {
        let engine = std::sync::Arc::new(crate::MosaicEngine::new());
        let s = engine.session();
        let reserved = |sql: &str| {
            let err = s.execute(sql).unwrap_err();
            assert!(matches!(err, MosaicError::Catalog(_)), "{sql}: {err}");
            assert!(
                err.to_string().contains("`weight` is the reserved column"),
                "{err}"
            );
        };
        reserved("CREATE GLOBAL POPULATION P (city TEXT, weight FLOAT)");
        reserved("CREATE GLOBAL POPULATION P (city TEXT, WEIGHT FLOAT)");
        s.execute("CREATE GLOBAL POPULATION P (city TEXT)").unwrap();
        reserved("CREATE POPULATION Q (city TEXT, Weight FLOAT) AS (SELECT * FROM P)");
        reserved("CREATE SAMPLE S (city TEXT, weight FLOAT) AS (SELECT * FROM P)");
        assert!(engine.catalog().sample("S").is_none());
    }

    #[test]
    fn sample_requires_population() {
        let mut c = Catalog::new();
        let s = Sample {
            name: "S".into(),
            population: "GP".into(),
            predicate: None,
            mechanism: None,
            data: empty_table(Schema::new(vec![Field::new("a", DataType::Int)])),
            weights: vec![],
        };
        assert!(c.create_sample(s.clone()).is_err());
        c.create_population(pop("GP", true)).unwrap();
        c.create_sample(s).unwrap();
        assert_eq!(c.samples_for("gp").len(), 1);
    }

    #[test]
    fn append_extends_weights() {
        let mut c = Catalog::new();
        c.create_population(pop("GP", true)).unwrap();
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        c.create_sample(Sample {
            name: "S".into(),
            population: "GP".into(),
            predicate: None,
            mechanism: None,
            data: empty_table(Arc::clone(&schema)),
            weights: vec![],
        })
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![1.into()]).unwrap();
        b.push_row(vec![2.into()]).unwrap();
        c.append_to_sample("S", b.finish()).unwrap();
        assert_eq!(c.sample("s").unwrap().weights, vec![1.0, 1.0]);
    }

    #[test]
    fn set_sample_weights_rejects_non_finite_and_negative() {
        let mut c = Catalog::new();
        c.create_population(pop("GP", true)).unwrap();
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        c.create_sample(Sample {
            name: "S".into(),
            population: "GP".into(),
            predicate: None,
            mechanism: None,
            data: empty_table(Arc::clone(&schema)),
            weights: vec![],
        })
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for a in 1..=3 {
            b.push_row(vec![a.into()]).unwrap();
        }
        c.append_to_sample("S", b.finish()).unwrap();
        for (bad, named) in [
            (-1.0, "weight -1 at index 1"),
            (f64::NAN, "weight NaN at index 1"),
            (f64::INFINITY, "weight inf at index 1"),
            (f64::NEG_INFINITY, "weight -inf at index 1"),
        ] {
            let err = c.set_sample_weights("S", vec![2.0, bad, -3.0]).unwrap_err();
            assert!(matches!(err, MosaicError::Execution(_)), "{err}");
            assert!(err.to_string().contains(named), "{err}");
            assert_eq!(c.sample("S").unwrap().weights, vec![1.0; 3]);
        }
        c.set_sample_weights("S", vec![0.0, -0.0, 2.5]).unwrap();
        assert_eq!(c.sample("S").unwrap().weights, vec![0.0, -0.0, 2.5]);
    }

    #[test]
    fn metadata_population_inference() {
        let mut c = Catalog::new();
        c.create_population(pop("EuropeMigrants", true)).unwrap();
        assert_eq!(
            c.infer_metadata_population("EuropeMigrants_M1"),
            Some("EuropeMigrants".to_string())
        );
        assert_eq!(c.infer_metadata_population("Unrelated_M1"), None);
    }

    #[test]
    fn drop_any_kind() {
        let mut c = Catalog::new();
        c.create_population(pop("GP", true)).unwrap();
        c.create_aux(
            "t",
            empty_table(Schema::new(vec![Field::new("a", DataType::Int)])),
        )
        .unwrap();
        c.drop_any("t").unwrap();
        assert!(c.aux("t").is_none());
        c.drop_any("GP").unwrap();
        assert!(c.global_population().is_none());
        assert!(c.drop_any("nothing").is_err());
    }

    #[test]
    fn name_clashes_rejected() {
        let mut c = Catalog::new();
        c.create_population(pop("GP", true)).unwrap();
        assert!(c
            .create_aux(
                "gp",
                empty_table(Schema::new(vec![Field::new("a", DataType::Int)]))
            )
            .is_err());
    }

    #[test]
    fn relation_epochs_track_writes() {
        let mut c = Catalog::new();
        assert_eq!(c.relation_epoch("t"), 0);
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        c.create_aux("t", empty_table(Arc::clone(&schema))).unwrap();
        let t1 = c.relation_epoch("T");
        assert!(t1 > 0, "creation stamps an epoch (case-insensitively)");
        c.create_population(pop("GP", true)).unwrap();
        assert_eq!(c.relation_epoch("t"), t1, "unrelated writes leave t alone");
        let gp1 = c.relation_epoch("gp");
        c.create_sample(Sample {
            name: "S".into(),
            population: "GP".into(),
            predicate: None,
            mechanism: None,
            data: empty_table(Arc::clone(&schema)),
            weights: vec![],
        })
        .unwrap();
        assert!(
            c.relation_epoch("gp") > gp1,
            "a sample write moves its population too"
        );
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![1.into()]).unwrap();
        let gp2 = c.relation_epoch("gp");
        let s1 = c.relation_epoch("s");
        c.append_to_sample("S", b.finish()).unwrap();
        assert!(c.relation_epoch("s") > s1);
        assert!(c.relation_epoch("gp") > gp2);
        let t_before_drop = c.relation_epoch("t");
        c.drop_any("t").unwrap();
        assert!(c.relation_epoch("t") > t_before_drop, "DROP is a write");
    }

    #[test]
    fn marginal_from_result_table() {
        let schema = Schema::new(vec![
            Field::new("country", DataType::Str),
            Field::new("cnt", DataType::Int),
        ]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec!["UK".into(), 100.into()]).unwrap();
        b.push_row(vec!["FR".into(), 50.into()]).unwrap();
        let m = marginal_from_table(&b.finish()).unwrap();
        assert_eq!(m.get(&["UK".into()]), Some(100.0));
        assert_eq!(m.total(), 150.0);
    }
}
