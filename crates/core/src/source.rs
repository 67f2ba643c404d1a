//! How a bound statement reads each FROM side (paper §4): the one
//! decision [`MosaicEngine::select`](crate::MosaicEngine) carries out
//! and EXPLAIN renders. It is the only place that picks a population's
//! sample, its metadata (its own, else its GP's: the two paths of
//! Fig. 3) and a STRATIFIED mechanism's marginal, and that collects the
//! marginals a join's combined weight is re-calibrated against.

use mosaic_sql::{Expr, Visibility};
use mosaic_stats::Marginal;
use mosaic_storage::{Column, Table};

use crate::catalog::{Catalog, Mechanism, MetadataEntry, Population, Sample};
use crate::session::{BoundRel, Resolved};
use crate::{MosaicError, Result};

/// How one FROM side is read.
pub(crate) struct SideRead<'c> {
    pub read: Read<'c>,
    /// Whether the side exposes a `weight` column.
    pub weighted: bool,
    /// On a weighted side of a SEMI-OPEN/OPEN statement: the metadata
    /// of its population, which a join's combined weight answers to.
    pub declared: Option<Metadata<'c>>,
}

/// What a side reads.
pub(crate) enum Read<'c> {
    /// An auxiliary table, as-is.
    Aux(&'c Table),
    /// A raw sample, its engine-managed weights exposed as `weight`.
    Sample(&'c Sample),
    /// A population through its chosen sample, and how that sample
    /// becomes the population — or the error execution raises on it.
    Population(PopulationRead<'c>, Result<How<'c>>),
}

/// A population read through its chosen sample; `view` is the
/// population's defining predicate when that sample is its GP's.
#[derive(Clone, Copy)]
pub(crate) struct PopulationRead<'c> {
    pub pop: &'c Population,
    pub sample: &'c Sample,
    pub view: Option<&'c Expr>,
    pub vis: Visibility,
}

/// How a population's sample becomes the population.
pub(crate) enum How<'c> {
    /// CLOSED: the sample as-is.
    AsIs,
    /// SEMI-OPEN under a known mechanism: inverse-probability weights —
    /// per stratum when a STRATIFIED mechanism's attribute column has a
    /// 1-D marginal over it, else `100/percent`.
    Mechanism(&'c Mechanism, Option<(&'c Column, &'c MetadataEntry)>),
    /// SEMI-OPEN otherwise: IPF against metadata.
    Ipf(Metadata<'c>),
    /// OPEN: generated by a model fitted against metadata.
    Generate(Metadata<'c>),
}

/// The marginals declared on one population (`of_gp`: the GP of the
/// population being read).
pub(crate) struct Metadata<'c> {
    pub entries: Vec<&'c MetadataEntry>,
    pub owner: &'c str,
    pub of_gp: bool,
}

impl Metadata<'_> {
    pub fn marginals(&self) -> Vec<Marginal> {
        self.entries.iter().map(|m| m.marginal.clone()).collect()
    }

    /// "N marginal(s) of P", or "… of GP G".
    pub fn describe(&self) -> String {
        let gp = if self.of_gp { "GP " } else { "" };
        format!("{} marginal(s) of {gp}{}", self.entries.len(), self.owner)
    }
}

/// The note a mechanism's weights leave on the answer.
pub(crate) fn mechanism_note(m: &Mechanism, strata: Option<(&Column, &MetadataEntry)>) -> String {
    match (m, strata) {
        (Mechanism::Uniform { percent }, _) => format!(
            "known UNIFORM mechanism: inverse-probability weight {:.3}",
            100.0 / percent
        ),
        (Mechanism::Stratified { attr, .. }, Some((_, meta))) => format!(
            "known STRATIFIED mechanism on {attr}: per-stratum N_h/n_h from metadata {}",
            meta.name
        ),
        (Mechanism::Stratified { attr, percent }, None) => format!(
            "known STRATIFIED mechanism on {attr} but no marginal over it; falling back to \
             uniform weight {:.3}",
            100.0 / percent
        ),
    }
}

/// Decide how `rel` is read under the statement's visibility. Fails when
/// the recorded relation is stale or a population has no non-empty
/// sample; a population whose debiasing path cannot run carries
/// execution's error in place of its [`How`].
pub(crate) fn read_side<'c>(
    cat: &'c Catalog,
    rel: &BoundRel,
    vis: Option<Visibility>,
) -> Result<SideRead<'c>> {
    let weighted = rel.weighted(vis);
    let reweighted = weighted && matches!(vis, Some(Visibility::SemiOpen | Visibility::Open));
    let declared = |owner: &'c str| Metadata {
        entries: cat.metadata_for(owner),
        owner,
        of_gp: false,
    };
    let (read, declared) = match rel.resolve(cat)? {
        Resolved::Aux(t) => (Read::Aux(t), None),
        Resolved::Sample(s) => (Read::Sample(s), reweighted.then(|| declared(&s.population))),
        Resolved::Population(pop) => {
            let (sample, view) = choose_sample(cat, pop)?;
            let vis = vis.expect("the binder bakes a population statement's visibility in");
            let own = declared(&pop.name);
            let metadata = match &pop.source {
                Some((gp, _)) if own.entries.is_empty() => Metadata {
                    of_gp: true,
                    ..declared(gp)
                },
                _ => Metadata {
                    entries: own.entries.clone(),
                    ..own
                },
            };
            let how = debiasing(cat, pop, sample, vis, metadata);
            let read = PopulationRead {
                pop,
                sample,
                view,
                vis,
            };
            (Read::Population(read, how), reweighted.then_some(own))
        }
    };
    Ok(SideRead {
        read,
        weighted,
        declared,
    })
}

/// The debiasing path of a population read through `sample`, given the
/// metadata that applies to it.
fn debiasing<'c>(
    cat: &'c Catalog,
    pop: &Population,
    sample: &'c Sample,
    vis: Visibility,
    metadata: Metadata<'c>,
) -> Result<How<'c>> {
    let missing = metadata.entries.is_empty();
    match (vis, &sample.mechanism) {
        (Visibility::Closed, _) => Ok(How::AsIs),
        (Visibility::SemiOpen, Some(m @ Mechanism::Uniform { .. })) => Ok(How::Mechanism(m, None)),
        (Visibility::SemiOpen, Some(m @ Mechanism::Stratified { attr, .. })) => {
            // N_h comes from a 1-D marginal over the attribute declared
            // on the sample's population.
            let marginal = cat
                .metadata_for(&sample.population)
                .into_iter()
                .find(|m| m.marginal.dim() == 1 && m.marginal.covers(attr));
            let column = sample.data.column_by_name(attr)?;
            Ok(How::Mechanism(m, marginal.map(|meta| (column, meta))))
        }
        (Visibility::SemiOpen, None) if missing => Err(MosaicError::Execution(format!(
            "SEMI-OPEN query over {} needs either a known sampling mechanism or population \
             metadata (CREATE METADATA …)",
            pop.name
        ))),
        (Visibility::SemiOpen, None) => Ok(How::Ipf(metadata)),
        (Visibility::Open, _) if missing => Err(MosaicError::Execution(format!(
            "OPEN query over {} requires population metadata",
            pop.name
        ))),
        (Visibility::Open, _) => Ok(How::Generate(metadata)),
    }
}

/// Pick "a single, optimal sample" (paper §4 assumption 2): prefer
/// samples declared on the query population, falling back to the GP's
/// samples (with the population's defining predicate as a view);
/// largest sample wins.
pub(crate) fn choose_sample<'c>(
    cat: &'c Catalog,
    pop: &'c Population,
) -> Result<(&'c Sample, Option<&'c Expr>)> {
    let largest = |population: &str| {
        cat.samples_for(population)
            .into_iter()
            .max_by_key(|s| s.len())
            .filter(|s| !s.is_empty())
    };
    if let Some(best) = largest(&pop.name) {
        return Ok((best, None));
    }
    if let Some((gp, pred)) = &pop.source {
        if let Some(best) = largest(gp) {
            return Ok((best, pred.as_ref()));
        }
    }
    Err(MosaicError::Execution(format!(
        "no non-empty sample available for population {}",
        pop.name
    )))
}

/// The combined weight of a join whose sides both expose weights: their
/// product, an independence assumption, raked under SEMI-OPEN/OPEN by
/// IPF against every marginal declared on a side's population. Returns
/// those marginals (empty: the product stands) and the text execution
/// notes and EXPLAIN prints; `None` for a single or unweighted side.
pub(crate) fn combined_weight(sides: &[SideRead<'_>]) -> Option<(Vec<Marginal>, String)> {
    if sides.len() < 2 || !sides.iter().all(|s| s.weighted) {
        return None;
    }
    let product = "product of per-side weights";
    let Some(declared) = sides
        .iter()
        .map(|s| s.declared.as_ref())
        .collect::<Option<Vec<_>>>()
    else {
        let why = "a join without a SEMI-OPEN or OPEN population is not re-calibrated";
        return Some((
            Vec::new(),
            format!("{product} (independence assumption; {why})"),
        ));
    };
    let mut marginals: Vec<Marginal> = Vec::new();
    let mut owners: Vec<&str> = Vec::new();
    for meta in declared {
        if !meta.entries.is_empty() && !owners.contains(&meta.owner) {
            owners.push(meta.owner);
        }
        for m in &meta.entries {
            if !marginals.contains(&m.marginal) {
                marginals.push(m.marginal.clone());
            }
        }
    }
    let text = match marginals.len() {
        0 => format!(
            "{product} (independence assumption; no declared marginals to re-calibrate against)"
        ),
        n => format!(
            "{product}, IPF re-calibrated against {n} declared marginal(s) of {}",
            owners.join(", ")
        ),
    };
    Some((marginals, text))
}
