use std::fmt;

use mosaic_sql::ParseError;
use mosaic_storage::StorageError;

/// Top-level Mosaic error.
#[derive(Debug)]
pub enum MosaicError {
    /// SQL syntax error.
    Parse(ParseError),
    /// Storage-layer error (types, schemas, bounds).
    Storage(StorageError),
    /// Catalog violation (unknown relation, duplicate name, missing GP,
    /// …).
    Catalog(String),
    /// A statement or expression the engine does not support.
    Unsupported(String),
    /// Query planning/execution error.
    Execution(String),
    /// Prepare-time binding failure: the statement references a relation,
    /// column, or shape that does not exist in the catalog.
    Bind(String),
    /// Positional-parameter mismatch: wrong parameter count, or a `?`
    /// placeholder evaluated without a bound value.
    Param(String),
    /// M-SWG training/generation failure.
    Swg(mosaic_swg::SwgError),
    /// Bayesian-network failure.
    Bn(mosaic_bn::BnError),
}

impl fmt::Display for MosaicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosaicError::Parse(e) => write!(f, "{e}"),
            MosaicError::Storage(e) => write!(f, "{e}"),
            MosaicError::Catalog(m) => write!(f, "catalog error: {m}"),
            MosaicError::Unsupported(m) => write!(f, "unsupported: {m}"),
            MosaicError::Execution(m) => write!(f, "execution error: {m}"),
            MosaicError::Bind(m) => write!(f, "bind error: {m}"),
            MosaicError::Param(m) => write!(f, "parameter error: {m}"),
            MosaicError::Swg(e) => write!(f, "M-SWG error: {e}"),
            MosaicError::Bn(e) => write!(f, "Bayesian network error: {e}"),
        }
    }
}

impl std::error::Error for MosaicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MosaicError::Parse(e) => Some(e),
            MosaicError::Storage(e) => Some(e),
            MosaicError::Swg(e) => Some(e),
            MosaicError::Bn(e) => Some(e),
            _ => None,
        }
    }
}

/// A script's failure: which statement failed and why. The statements
/// before it ran and keep their effects; the ones after it did not run.
#[derive(Debug)]
pub struct ScriptError {
    /// The failing statement's 0-based index in the script and its text,
    /// trimmed and without the `;`; `None` when the script did not parse.
    pub statement: Option<(usize, String)>,
    /// What went wrong.
    pub error: MosaicError,
}

impl ScriptError {
    /// The failure of statement `index`, whose text is `text`.
    pub(crate) fn at(index: usize, text: &str, error: MosaicError) -> ScriptError {
        ScriptError {
            statement: Some((index, text.to_string())),
            error,
        }
    }
}

impl From<ParseError> for MosaicError {
    fn from(e: ParseError) -> Self {
        MosaicError::Parse(e)
    }
}

impl From<StorageError> for MosaicError {
    fn from(e: StorageError) -> Self {
        MosaicError::Storage(e)
    }
}

impl From<mosaic_swg::SwgError> for MosaicError {
    fn from(e: mosaic_swg::SwgError) -> Self {
        MosaicError::Swg(e)
    }
}

impl From<mosaic_bn::BnError> for MosaicError {
    fn from(e: mosaic_bn::BnError) -> Self {
        MosaicError::Bn(e)
    }
}
