use std::collections::HashMap;
use std::sync::Arc;

use crate::{Bitmap, DataType, Result, StorageError, Value};

/// A deduplicated string dictionary shared by dictionary-encoded columns.
///
/// Codes are assigned in order of first appearance, so encoding the same
/// sequence of strings always yields the same `(codes, dict)` pair — the
/// determinism contract of the engine extends down to the encoding. The
/// auxiliary `sorted` / `ranks` permutations are precomputed so ordered
/// row comparison ([`Column::total_cmp_rows`]) and literal lookup
/// ([`Dictionary::code_of`]) run without any string comparison per row.
#[derive(Debug)]
pub struct Dictionary {
    /// Distinct values, indexed by code (first-appearance order).
    values: Vec<String>,
    /// Codes ordered so that `values[sorted[0]] <= values[sorted[1]] <= ..`.
    sorted: Vec<u32>,
    /// `ranks[code]` = position of `code` in `sorted` (its sort rank).
    ranks: Vec<u32>,
}

impl Dictionary {
    /// Encode `values` into per-row codes plus the shared dictionary.
    /// Strings are moved, never cloned; duplicates are dropped.
    pub fn encode(values: Vec<String>) -> (Vec<u32>, Arc<Dictionary>) {
        let mut b = DictionaryBuilder::default();
        let codes = values.into_iter().map(|s| b.code_owned(s)).collect();
        (codes, Arc::new(b.finish()))
    }

    /// Build from already-distinct values (codes = positions).
    fn from_values(values: Vec<String>) -> Dictionary {
        let mut sorted: Vec<u32> = (0..values.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
        let mut ranks = vec![0u32; values.len()];
        for (rank, &code) in sorted.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        Dictionary {
            values,
            sorted,
            ranks,
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string behind `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// All distinct values, indexed by code.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Look up the code for `s` (binary search over the sort permutation;
    /// `None` if `s` is not in the dictionary).
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.sorted
            .binary_search_by(|&c| self.values[c as usize].as_str().cmp(s))
            .ok()
            .map(|pos| self.sorted[pos])
    }

    /// Sort rank of `code`: comparing ranks orders rows exactly like
    /// comparing the underlying strings.
    #[inline]
    pub fn rank(&self, code: u32) -> u32 {
        self.ranks[code as usize]
    }

    /// Approximate heap footprint of the dictionary: string bytes plus
    /// the per-value bookkeeping (`String` headers, sort permutation,
    /// rank table).
    pub fn approx_bytes(&self) -> usize {
        let strings: usize = self.values.iter().map(String::len).sum();
        strings + self.values.len() * (std::mem::size_of::<String>() + 2 * 4)
    }
}

/// A [`Dictionary`] under construction: hands out codes in order of first
/// appearance while the values are still arriving, so a scan (CSV ingest,
/// the unifying concat) encodes as it goes instead of collecting strings
/// for a second pass. Each distinct value is allocated exactly once.
#[derive(Debug, Default)]
pub(crate) struct DictionaryBuilder {
    map: HashMap<String, u32>,
}

impl DictionaryBuilder {
    /// The code of `s`, assigning the next free one on first sight.
    pub(crate) fn code(&mut self, s: &str) -> u32 {
        match self.map.get(s) {
            Some(&c) => c,
            None => {
                let c = self.map.len() as u32;
                self.map.insert(s.to_string(), c);
                c
            }
        }
    }

    /// [`DictionaryBuilder::code`] for a string the caller can give up:
    /// moved into the dictionary on first sight, never cloned.
    fn code_owned(&mut self, s: String) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(s).or_insert(next)
    }

    /// Seal into a [`Dictionary`] (builds the sort permutation).
    pub(crate) fn finish(self) -> Dictionary {
        let mut values = vec![String::new(); self.map.len()];
        for (s, c) in self.map {
            values[c as usize] = s;
        }
        Dictionary::from_values(values)
    }
}

/// A typed, contiguous column with an optional validity bitmap.
///
/// Invariant: if `validity` is `Some`, its length equals the data length and
/// a cleared bit means the slot is NULL (the slot's payload is a type default
/// and must not be observed).
///
/// The payload is shared behind an [`Arc`]: columns are immutable after
/// construction, so `Clone` is O(1) and tables can flow through the
/// physical-plan pipeline (and the engine's catalog snapshots) without
/// copying data. A column may additionally be a *view* over a window of
/// its payload (`offset`/`len`, see [`Column::slice`]): morsel-driven
/// execution slices each column into ~fixed-row morsels that share the
/// same `Arc` payload, so slicing costs O(1) per column plus a small
/// validity-bitmap copy. The stored `validity` is always relative to the
/// view, never to the full payload.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Bitmap>,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    /// Dictionary-encoded strings: per-row u32 codes into a shared
    /// [`Dictionary`]. Reports [`DataType::Str`]; `take`/`slice`/
    /// `concat_many` move only codes, never `String`s.
    Dict {
        codes: Vec<u32>,
        dict: Arc<Dictionary>,
    },
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }
}

impl Column {
    /// Build a column of `ty` from dynamic values, coercing `Int` into
    /// `Float` columns (and whole floats into `Int` columns).
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Column> {
        let mut b = ColumnBuilder::new(ty);
        for v in values {
            b.push(v.clone())?;
        }
        Ok(b.finish())
    }

    /// Wrap a full (unsliced) payload.
    fn full(data: ColumnData, validity: Option<Bitmap>) -> Column {
        let len = data.len();
        Column {
            data: Arc::new(data),
            validity,
            offset: 0,
            len,
        }
    }

    /// Column of 64-bit integers (no NULLs).
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column::full(ColumnData::Int(values), None)
    }

    /// Column of 64-bit floats (no NULLs).
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column::full(ColumnData::Float(values), None)
    }

    /// Column of strings (no NULLs), dictionary-encoded on construction.
    #[allow(clippy::should_implement_trait)] // established inherent name
    pub fn from_str(values: Vec<String>) -> Column {
        let (codes, dict) = Dictionary::encode(values);
        Column::full(ColumnData::Dict { codes, dict }, None)
    }

    /// Column of booleans (no NULLs).
    pub fn from_bool(values: Vec<bool>) -> Column {
        Column::full(ColumnData::Bool(values), None)
    }

    /// Number of rows (of this view, not of the shared payload).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical type (dictionary-encoded columns report [`DataType::Str`]).
    pub fn data_type(&self) -> DataType {
        match self.data.as_ref() {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) | ColumnData::Dict { .. } => DataType::Str,
        }
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.validity.as_ref().is_some_and(|v| !v.get(i))
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match &self.validity {
            Some(v) => v.len() - v.count_ones(),
            None => 0,
        }
    }

    /// Dynamic value at row `i` (bounds-checked).
    pub fn value(&self, i: usize) -> Value {
        if i >= self.len() {
            panic!("row {i} out of bounds for column of len {}", self.len());
        }
        if self.is_null(i) {
            return Value::Null;
        }
        let i = self.offset + i;
        match self.data.as_ref() {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Dict { codes, dict } => Value::Str(dict.get(codes[i]).to_string()),
        }
    }

    /// Numeric view of row `i` (NULL → `None`; ints widen).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        let i = self.offset + i;
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Bool(v) => Some(v[i] as u8 as f64),
            ColumnData::Str(_) | ColumnData::Dict { .. } => None,
        }
    }

    /// Borrowed `i64` slice if this is a non-null Int column.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match (self.data.as_ref(), &self.validity) {
            (ColumnData::Int(v), None) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Borrowed `f64` slice if this is a non-null Float column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match (self.data.as_ref(), &self.validity) {
            (ColumnData::Float(v), None) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Raw `i64` payload regardless of validity (NULL slots hold a type
    /// default and must be masked with [`Column::validity`]).
    pub fn i64_data(&self) -> Option<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Raw `f64` payload regardless of validity.
    pub fn f64_data(&self) -> Option<&[f64]> {
        match self.data.as_ref() {
            ColumnData::Float(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Raw `bool` payload regardless of validity.
    pub fn bool_data(&self) -> Option<&[bool]> {
        match self.data.as_ref() {
            ColumnData::Bool(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Raw string payload regardless of validity. `None` for
    /// dictionary-encoded columns — use [`Column::dict_parts`] there.
    pub fn str_data(&self) -> Option<&[String]> {
        match self.data.as_ref() {
            ColumnData::Str(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// Per-row codes and shared dictionary if this column is
    /// dictionary-encoded (codes windowed to this view).
    pub fn dict_parts(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match self.data.as_ref() {
            ColumnData::Dict { codes, dict } => {
                Some((&codes[self.offset..self.offset + self.len], dict))
            }
            _ => None,
        }
    }

    /// True if this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        matches!(self.data.as_ref(), ColumnData::Dict { .. })
    }

    /// Dictionary-encoded copy of this column: plain string columns are
    /// encoded (one pass, strings cloned once); every other
    /// representation is returned as-is (O(1) clone).
    pub fn dict_encoded(&self) -> Column {
        match self.data.as_ref() {
            ColumnData::Str(v) => {
                let window = v[self.offset..self.offset + self.len].to_vec();
                let (codes, dict) = Dictionary::encode(window);
                Column::full(ColumnData::Dict { codes, dict }, self.validity.clone())
            }
            _ => self.clone(),
        }
    }

    /// The validity bitmap (`None` = no NULLs).
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// Int column from raw parts; an all-ones validity is normalized to
    /// `None` so kernel outputs are indistinguishable from builder output.
    pub fn from_i64_opt(values: Vec<i64>, validity: Option<Bitmap>) -> Column {
        Column::full(ColumnData::Int(values), normalize_validity(validity))
    }

    /// Float column from raw parts (see [`Column::from_i64_opt`]).
    pub fn from_f64_opt(values: Vec<f64>, validity: Option<Bitmap>) -> Column {
        Column::full(ColumnData::Float(values), normalize_validity(validity))
    }

    /// Bool column from raw parts (see [`Column::from_i64_opt`]).
    pub fn from_bool_opt(values: Vec<bool>, validity: Option<Bitmap>) -> Column {
        Column::full(ColumnData::Bool(values), normalize_validity(validity))
    }

    /// Dictionary-encoded string column from codes and the dictionary
    /// they index — what a scan that encoded as it went (CSV ingest)
    /// hands over. Every code must be in bounds for `dict`.
    pub(crate) fn from_dict_parts(
        codes: Vec<u32>,
        dict: DictionaryBuilder,
        validity: Option<Bitmap>,
    ) -> Column {
        let dict = Arc::new(dict.finish());
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()));
        Column::full(
            ColumnData::Dict { codes, dict },
            normalize_validity(validity),
        )
    }

    /// Total order between two rows of this column (NULLs first, floats
    /// via `total_cmp`) without materializing [`Value`]s — the sort
    /// comparator of the physical plan layer.
    pub fn total_cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.is_null(a), self.is_null(b)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        let (a, b) = (self.offset + a, self.offset + b);
        match self.data.as_ref() {
            ColumnData::Bool(v) => v[a].cmp(&v[b]),
            ColumnData::Int(v) => v[a].cmp(&v[b]),
            ColumnData::Float(v) => v[a].total_cmp(&v[b]),
            ColumnData::Str(v) => v[a].cmp(&v[b]),
            // Comparing sort ranks orders rows exactly like comparing the
            // underlying strings, without touching string bytes.
            ColumnData::Dict { codes, dict } => dict.rank(codes[a]).cmp(&dict.rank(codes[b])),
        }
    }

    /// An order-preserving `u64` prefix of row `i`: whenever
    /// `order_prefix(a) < order_prefix(b)`, [`Column::total_cmp_rows`]
    /// puts row `a` strictly before row `b` (complement both prefixes to
    /// order descending). A sort can then order `(prefix, row)` pairs
    /// with integer comparisons alone and look further only among equal
    /// prefixes.
    ///
    /// Int flips the sign bit; Float takes the `total_cmp` bit transform
    /// (−0.0 before +0.0, NaNs where `total_cmp` puts them); a plain
    /// string keeps its first 8 bytes, big-endian and zero-padded; a
    /// dictionary code maps to its sort rank + 1 and Bool to 1 or 2. NULL
    /// is 0, which it shares only with `i64::MIN` and the NaN whose bits
    /// are all ones.
    #[inline]
    pub fn order_prefix(&self, i: usize) -> u64 {
        if self.is_null(i) {
            return 0;
        }
        let i = self.offset + i;
        match self.data.as_ref() {
            ColumnData::Bool(v) => v[i] as u64 + 1,
            ColumnData::Int(v) => v[i] as u64 ^ (1 << 63),
            ColumnData::Float(v) => {
                let bits = v[i].to_bits() as i64;
                (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63)
            }
            ColumnData::Str(v) => {
                let mut head = [0u8; 8];
                let n = v[i].len().min(8);
                head[..n].copy_from_slice(&v[i].as_bytes()[..n]);
                u64::from_be_bytes(head)
            }
            ColumnData::Dict { codes, dict } => u64::from(dict.rank(codes[i])) + 1,
        }
    }

    /// True when equal [order prefixes](Column::order_prefix) of two
    /// non-NULL rows mean equal values: every representation but a plain
    /// (not dictionary-encoded) string column, whose prefix keeps 8
    /// bytes.
    pub fn order_prefix_is_exact(&self) -> bool {
        !matches!(self.data.as_ref(), ColumnData::Str(_))
    }

    /// All values as f64, with NULL/non-numeric as `None`.
    pub fn to_f64_vec(&self) -> Vec<Option<f64>> {
        (0..self.len()).map(|i| self.f64_at(i)).collect()
    }

    /// Gather rows by index (indices may repeat and reorder).
    pub fn take(&self, indices: &[usize]) -> Column {
        let validity = self
            .validity
            .as_ref()
            .map(|v| Bitmap::from_iter(indices.iter().map(|&i| v.get(i))));
        let o = self.offset;
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[o + i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[o + i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[o + i]).collect()),
            ColumnData::Str(v) => {
                let mut out = Vec::with_capacity(indices.len());
                out.extend(indices.iter().map(|&i| v[o + i].clone()));
                ColumnData::Str(out)
            }
            // Gather u32 codes only — the dictionary is shared, no string
            // is cloned no matter how many rows are taken.
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: indices.iter().map(|&i| codes[o + i]).collect(),
                dict: Arc::clone(dict),
            },
        };
        Column::full(data, validity)
    }

    /// Gather rows by optional index: `None` emits a NULL row (type
    /// default payload, cleared validity bit). This is the NULL-extending
    /// gather of LEFT OUTER joins — unmatched probe rows take `None` on
    /// the build side. Delegates to [`Column::take`] when every index is
    /// present.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        if indices.iter().all(Option::is_some) {
            let idx: Vec<usize> = indices.iter().map(|i| i.expect("checked")).collect();
            return self.take(&idx);
        }
        let validity = Some(Bitmap::from_iter(indices.iter().map(|i| match i {
            Some(i) => !self.is_null(*i),
            None => false,
        })));
        let o = self.offset;
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(
                indices
                    .iter()
                    .map(|i| i.is_some_and(|i| v[o + i]))
                    .collect(),
            ),
            ColumnData::Int(v) => {
                ColumnData::Int(indices.iter().map(|i| i.map_or(0, |i| v[o + i])).collect())
            }
            ColumnData::Float(v) => ColumnData::Float(
                indices
                    .iter()
                    .map(|i| i.map_or(0.0, |i| v[o + i]))
                    .collect(),
            ),
            ColumnData::Str(v) => ColumnData::Str(
                indices
                    .iter()
                    .map(|i| i.map_or_else(String::new, |i| v[o + i].clone()))
                    .collect(),
            ),
            ColumnData::Dict { codes, dict } => {
                // NULL slots still need an in-bounds code. An empty
                // dictionary has none to reuse, so fall back to a plain
                // payload there (only reachable when every index is None).
                if dict.is_empty() {
                    ColumnData::Str(indices.iter().map(|_| String::new()).collect())
                } else {
                    ColumnData::Dict {
                        codes: indices
                            .iter()
                            .map(|i| i.map_or(0, |i| codes[o + i]))
                            .collect(),
                        dict: Arc::clone(dict),
                    }
                }
            }
        };
        Column::full(data, normalize_validity(validity))
    }

    /// Zero-copy view of rows `[offset, offset + len)`: the payload stays
    /// shared behind the `Arc`; only the validity window is copied. This
    /// is the morsel entry point of the storage layer — every typed
    /// kernel accepts the slices such a view exposes.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(offset + len <= self.len, "column slice out of bounds");
        Column {
            data: Arc::clone(&self.data),
            validity: self
                .validity
                .as_ref()
                .map(|v| v.slice(offset, len))
                .and_then(|v| normalize_validity(Some(v))),
            offset: self.offset + offset,
            len,
        }
    }

    /// Keep rows whose selection bit is set.
    pub fn filter(&self, selection: &Bitmap) -> Column {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        self.take(&selection.to_indices())
    }

    /// Concatenate with another column of the same type. Delegates to
    /// [`Column::concat_many`], so payload slices extend without per-cell
    /// `Value` round-trips and dictionary encodings survive (mixed
    /// plain/dict string inputs unify into a fresh dictionary).
    pub fn concat(&self, other: &Column) -> Result<Column> {
        Self::concat_many(&[self, other])
    }

    /// Vertically concatenate many same-typed columns in one pass,
    /// extending raw payload slices instead of round-tripping per-cell
    /// [`Value`]s — the merge step of morsel-driven execution. Payload
    /// bits (including float NaN payloads) are preserved exactly.
    pub fn concat_many(parts: &[&Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(StorageError::InvalidValue(
                "Column::concat_many needs at least one input".into(),
            ));
        };
        let ty = first.data_type();
        for p in parts {
            if p.data_type() != ty {
                return Err(StorageError::TypeMismatch {
                    expected: ty.to_string(),
                    actual: p.data_type().to_string(),
                    context: "Column::concat_many".into(),
                });
            }
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let validity = if parts.iter().any(|p| p.validity.is_some()) {
            let mut bits = Bitmap::zeros(total);
            let mut at = 0;
            for p in parts {
                match &p.validity {
                    Some(v) => {
                        for i in v.iter_ones() {
                            bits.set(at + i, true);
                        }
                    }
                    None => {
                        for i in 0..p.len() {
                            bits.set(at + i, true);
                        }
                    }
                }
                at += p.len();
            }
            Some(bits)
        } else {
            None
        };
        let data = match ty {
            DataType::Int => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.i64_data().expect("type-checked"));
                }
                ColumnData::Int(out)
            }
            DataType::Float => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.f64_data().expect("type-checked"));
                }
                ColumnData::Float(out)
            }
            DataType::Bool => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.bool_data().expect("type-checked"));
                }
                ColumnData::Bool(out)
            }
            DataType::Str => concat_str_parts(parts, total),
        };
        Ok(Column::full(data, normalize_validity(validity)))
    }

    /// Iterate dynamic values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Approximate heap footprint of this column *view* in bytes: the
    /// payload bytes of the visible window plus the validity bitmap. A
    /// dictionary-encoded view counts its codes plus the whole shared
    /// dictionary (the dictionary keeps the codes decodable, so an
    /// accounting that holds the view alive must charge for it; shared
    /// payloads may therefore be counted more than once — this is a
    /// cheap upper-bound estimate, not an allocator report).
    pub fn approx_bytes(&self) -> usize {
        let (o, n) = (self.offset, self.len);
        let payload = match self.data.as_ref() {
            ColumnData::Bool(_) => n,
            ColumnData::Int(_) | ColumnData::Float(_) => n * 8,
            ColumnData::Str(v) => v[o..o + n]
                .iter()
                .map(|s| s.len() + std::mem::size_of::<String>())
                .sum(),
            ColumnData::Dict { dict, .. } => n * 4 + dict.approx_bytes(),
        };
        let validity = self.validity.as_ref().map_or(0, |v| v.len().div_ceil(8));
        payload + validity
    }

    /// Min and max over non-null numeric rows.
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut seen = false;
        for i in 0..self.len() {
            if let Some(x) = self.f64_at(i) {
                min = min.min(x);
                max = max.max(x);
                seen = true;
            }
        }
        seen.then_some((min, max))
    }
}

fn normalize_validity(validity: Option<Bitmap>) -> Option<Bitmap> {
    validity.filter(|v| !v.all())
}

/// Concatenate the string payloads of `parts` (all type-checked as Str).
///
/// Morsel outputs usually slice one shared dictionary-encoded payload, so
/// the common case concatenates u32 codes and shares the `Arc` — zero
/// string traffic. Mixed representations (or distinct dictionaries) fall
/// back to building one unified dictionary in first-appearance order,
/// translating each *distinct* code once per part rather than per row.
fn concat_str_parts(parts: &[&Column], total: usize) -> ColumnData {
    if parts.iter().all(|p| !p.is_dict()) {
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend_from_slice(p.str_data().expect("type-checked"));
        }
        return ColumnData::Str(out);
    }
    if let Some((_, d0)) = parts[0].dict_parts() {
        if parts
            .iter()
            .all(|p| p.dict_parts().is_some_and(|(_, d)| Arc::ptr_eq(d, d0)))
        {
            let mut codes = Vec::with_capacity(total);
            for p in parts {
                codes.extend_from_slice(p.dict_parts().expect("checked dict").0);
            }
            return ColumnData::Dict {
                codes,
                dict: Arc::clone(d0),
            };
        }
    }
    let mut unified = DictionaryBuilder::default();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        if let Some((codes, dict)) = p.dict_parts() {
            let mut remap = vec![u32::MAX; dict.len()];
            for &c in codes {
                if remap[c as usize] == u32::MAX {
                    remap[c as usize] = unified.code(dict.get(c));
                }
                out.push(remap[c as usize]);
            }
        } else {
            for s in p.str_data().expect("type-checked") {
                out.push(unified.code(s));
            }
        }
    }
    ColumnData::Dict {
        codes: out,
        dict: Arc::new(unified.finish()),
    }
}

/// Incremental, type-checked column construction.
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: DataType,
    data: ColumnData,
    validity: Option<Bitmap>,
    nulls: Vec<bool>,
    has_null: bool,
}

impl ColumnBuilder {
    /// New builder for type `ty`.
    pub fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
        };
        ColumnBuilder {
            ty,
            data,
            validity: None,
            nulls: Vec::new(),
            has_null: false,
        }
    }

    /// New builder with row-capacity hint.
    pub fn with_capacity(ty: DataType, capacity: usize) -> Self {
        let data = match ty {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(capacity)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(capacity)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(capacity)),
        };
        ColumnBuilder {
            ty,
            data,
            validity: None,
            nulls: Vec::with_capacity(capacity),
            has_null: false,
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.nulls.is_empty()
    }

    /// Append a value, coercing between Int/Float where lossless.
    pub fn push(&mut self, v: Value) -> Result<()> {
        let mismatch = |actual: &Value, ty: DataType| StorageError::TypeMismatch {
            expected: ty.to_string(),
            actual: actual
                .data_type()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "NULL".into()),
            context: "ColumnBuilder::push".into(),
        };
        if v.is_null() {
            self.has_null = true;
            self.nulls.push(true);
            match &mut self.data {
                ColumnData::Bool(d) => d.push(false),
                ColumnData::Int(d) => d.push(0),
                ColumnData::Float(d) => d.push(0.0),
                ColumnData::Str(d) => d.push(String::new()),
                ColumnData::Dict { .. } => unreachable!("builder never holds dict data"),
            }
            return Ok(());
        }
        self.nulls.push(false);
        // Match by value so string payloads move into the column instead
        // of being cloned per row.
        match (&mut self.data, v) {
            (ColumnData::Bool(d), Value::Bool(b)) => d.push(b),
            (ColumnData::Int(d), Value::Int(i)) => d.push(i),
            (ColumnData::Int(d), Value::Float(f)) if f.fract() == 0.0 => d.push(f as i64),
            (ColumnData::Float(d), Value::Float(f)) => d.push(f),
            (ColumnData::Float(d), Value::Int(i)) => d.push(i as f64),
            (ColumnData::Str(d), Value::Str(s)) => d.push(s),
            (_, v) => {
                self.nulls.pop();
                return Err(mismatch(&v, self.ty));
            }
        }
        Ok(())
    }

    /// Finish into an immutable [`Column`].
    pub fn finish(mut self) -> Column {
        if self.has_null {
            self.validity = Some(Bitmap::from_iter(self.nulls.iter().map(|&n| !n)));
        }
        Column::full(self.data, self.validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_coerces_numerics() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(Value::Int(1)).unwrap();
        b.push(Value::Float(2.5)).unwrap();
        let c = b.finish();
        assert_eq!(c.as_f64_slice().unwrap(), &[1.0, 2.5]);
    }

    #[test]
    fn builder_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int);
        assert!(b.push(Value::Str("x".into())).is_err());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn nulls_tracked_in_validity() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(Value::Int(1)).unwrap();
        b.push(Value::Null).unwrap();
        b.push(Value::Int(3)).unwrap();
        let c = b.finish();
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int(3));
        assert_eq!(c.f64_at(1), None);
    }

    #[test]
    fn take_reorders_and_repeats() {
        let c = Column::from_i64(vec![10, 20, 30]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.as_i64_slice().unwrap(), &[30, 10, 10]);
    }

    #[test]
    fn take_opt_null_extends() {
        let c = Column::from_i64(vec![10, 20, 30]);
        let t = c.take_opt(&[Some(2), None, Some(0)]);
        assert_eq!(t.value(0), Value::Int(30));
        assert_eq!(t.value(1), Value::Null);
        assert_eq!(t.value(2), Value::Int(10));
        // All-present delegates to `take` (no validity).
        assert!(c.take_opt(&[Some(1), Some(1)]).validity().is_none());
        // Dict columns keep their shared dictionary; NULL codes stay
        // in bounds.
        let s = Column::from_str(vec!["x".into(), "y".into()]);
        let t = s.take_opt(&[None, Some(1)]);
        assert_eq!(t.value(0), Value::Null);
        assert_eq!(t.value(1), Value::Str("y".into()));
        assert!(t.is_dict());
        // Source NULLs survive the gather.
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(Value::Null).unwrap();
        b.push(Value::Float(1.5)).unwrap();
        let f = b.finish();
        let t = f.take_opt(&[Some(0), None, Some(1)]);
        assert_eq!(t.null_count(), 2);
        assert_eq!(t.value(2), Value::Float(1.5));
    }

    #[test]
    fn filter_by_bitmap() {
        let c = Column::from_str(vec!["a".into(), "b".into(), "c".into()]);
        let sel = Bitmap::from_iter([true, false, true]);
        let f = c.filter(&sel);
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1), Value::Str("c".into()));
    }

    #[test]
    fn concat_same_type() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![2, 3]);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_i64_slice().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_str(vec!["x".into()]);
        assert!(a.concat(&b).is_err());
    }

    #[test]
    fn slice_is_a_window() {
        let mut b = ColumnBuilder::new(DataType::Int);
        for v in [
            Value::Int(10),
            Value::Null,
            Value::Int(30),
            Value::Int(40),
            Value::Int(50),
        ] {
            b.push(v).unwrap();
        }
        let c = b.finish();
        let s = c.slice(1, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(0), Value::Null);
        assert_eq!(s.value(1), Value::Int(30));
        assert_eq!(s.i64_data().unwrap(), &[0, 30, 40]);
        assert_eq!(s.null_count(), 1);
        // Nested slices compose; an all-valid window drops its validity.
        let s2 = s.slice(1, 2);
        assert!(s2.validity().is_none());
        assert_eq!(s2.as_i64_slice().unwrap(), &[30, 40]);
        assert_eq!(s2.take(&[1, 0]).as_i64_slice().unwrap(), &[40, 30]);
        assert_eq!(s2.total_cmp_rows(0, 1), std::cmp::Ordering::Less);
    }

    #[test]
    fn concat_many_rebuilds_slices() {
        let mut b = ColumnBuilder::new(DataType::Float);
        for v in [
            Value::Float(1.5),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
        ] {
            b.push(v).unwrap();
        }
        let c = b.finish();
        let whole = Column::concat_many(&[&c.slice(0, 2), &c.slice(2, 2)]).unwrap();
        assert_eq!(whole.len(), 4);
        for i in 0..4 {
            assert_eq!(whole.value(i), c.value(i), "row {i}");
        }
        let no_nulls = Column::concat_many(&[&c.slice(0, 1), &c.slice(3, 1)]).unwrap();
        assert!(no_nulls.validity().is_none());
        assert!(Column::concat_many(&[]).is_err());
    }

    #[test]
    fn from_parts_normalizes_all_ones_validity() {
        let c = Column::from_i64_opt(vec![1, 2], Some(Bitmap::ones(2)));
        assert!(c.validity().is_none());
        assert!(c.as_i64_slice().is_some());
        let c = Column::from_f64_opt(vec![1.0, 2.0], Some(Bitmap::from_iter([true, false])));
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(1), Value::Null);
    }

    #[test]
    fn total_cmp_rows_matches_value_total_cmp() {
        let mut b = ColumnBuilder::new(DataType::Float);
        for v in [
            Value::Float(2.0),
            Value::Null,
            Value::Float(-1.0),
            Value::Float(2.0),
        ] {
            b.push(v).unwrap();
        }
        let c = b.finish();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    c.total_cmp_rows(a, b),
                    c.value(a).total_cmp(&c.value(b)),
                    "rows {a},{b}"
                );
            }
        }
    }

    #[test]
    fn from_str_builds_dictionary() {
        let c = Column::from_str(vec!["b".into(), "a".into(), "b".into(), "c".into()]);
        assert!(c.is_dict());
        assert_eq!(c.data_type(), DataType::Str);
        let (codes, dict) = c.dict_parts().unwrap();
        // Codes are assigned in first-appearance order.
        assert_eq!(codes, &[0, 1, 0, 2]);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.get(0), "b");
        assert_eq!(dict.code_of("c"), Some(2));
        assert_eq!(dict.code_of("zzz"), None);
        assert_eq!(c.value(2), Value::Str("b".into()));
        assert!(c.str_data().is_none());
    }

    #[test]
    fn dict_rank_orders_like_strings() {
        let c = Column::from_str(vec!["pear".into(), "apple".into(), "mango".into()]);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(
                    c.total_cmp_rows(a, b),
                    c.value(a).total_cmp(&c.value(b)),
                    "rows {a},{b}"
                );
            }
        }
    }

    #[test]
    fn dict_take_and_slice_share_dictionary() {
        let c = Column::from_str(vec!["x".into(), "y".into(), "x".into(), "z".into()]);
        let (_, d0) = c.dict_parts().unwrap();
        let d0 = Arc::clone(d0);
        let t = c.take(&[3, 0, 0]);
        assert!(Arc::ptr_eq(t.dict_parts().unwrap().1, &d0));
        assert_eq!(t.value(0), Value::Str("z".into()));
        let s = c.slice(1, 2);
        assert_eq!(s.dict_parts().unwrap().0, &[1, 0]);
        assert_eq!(s.value(1), Value::Str("x".into()));
    }

    #[test]
    fn concat_many_shared_dict_concats_codes() {
        let c = Column::from_str(vec!["a".into(), "b".into(), "a".into(), "c".into()]);
        let whole = Column::concat_many(&[&c.slice(0, 2), &c.slice(2, 2)]).unwrap();
        assert!(Arc::ptr_eq(
            whole.dict_parts().unwrap().1,
            c.dict_parts().unwrap().1
        ));
        for i in 0..4 {
            assert_eq!(whole.value(i), c.value(i), "row {i}");
        }
    }

    #[test]
    fn concat_many_mixed_representations_unifies() {
        let dict = Column::from_str(vec!["a".into(), "b".into()]);
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push(Value::Str("b".into())).unwrap();
        b.push(Value::Null).unwrap();
        b.push(Value::Str("c".into())).unwrap();
        let plain = b.finish();
        assert!(!plain.is_dict());
        let other = Column::from_str(vec!["c".into(), "d".into()]);
        let whole = Column::concat_many(&[&dict, &plain, &other]).unwrap();
        assert!(whole.is_dict());
        assert_eq!(whole.len(), 7);
        let expect = ["a", "b", "b", "", "c", "c", "d"];
        for (i, e) in expect.iter().enumerate() {
            if i == 3 {
                assert_eq!(whole.value(i), Value::Null);
            } else {
                assert_eq!(whole.value(i), Value::Str((*e).to_string()), "row {i}");
            }
        }
    }

    #[test]
    fn dict_encoded_roundtrips_plain() {
        let mut b = ColumnBuilder::new(DataType::Str);
        for v in [Value::Str("q".into()), Value::Null, Value::Str("p".into())] {
            b.push(v).unwrap();
        }
        let plain = b.finish();
        let dict = plain.dict_encoded();
        assert!(dict.is_dict());
        assert_eq!(dict.null_count(), 1);
        for i in 0..3 {
            assert_eq!(dict.value(i), plain.value(i), "row {i}");
        }
        // Already-dict and non-string columns pass through unchanged.
        assert!(dict.dict_encoded().is_dict());
        assert!(!Column::from_i64(vec![1]).dict_encoded().is_dict());
    }

    #[test]
    fn numeric_range_skips_nulls() {
        let mut b = ColumnBuilder::new(DataType::Float);
        b.push(Value::Null).unwrap();
        b.push(Value::Float(-2.0)).unwrap();
        b.push(Value::Float(5.0)).unwrap();
        let c = b.finish();
        assert_eq!(c.numeric_range(), Some((-2.0, 5.0)));
    }
}
