//! Model persistence: save a trained [`LtePipeline`] to disk and load it
//! back, byte-for-byte reproducible.
//!
//! The offline phase is the expensive part of LTE (minutes to hours of
//! meta-training at paper scale); a deployable system trains once and
//! serves many users. This module provides a small, dependency-free,
//! versioned binary format covering everything the online phase needs:
//! the configuration, per-subspace contexts (cluster centers + fitted
//! encoders; proximity matrices are recomputed on load), and per-subspace
//! meta-learners (φ parameters + memories).
//!
//! The format is little-endian with a `LTEP` magic and a version byte;
//! loading validates structure and fails with a descriptive
//! [`PersistError`] instead of panicking on corrupt input.

use crate::config::{
    LteConfig, MetaTaskConfig, NetConfig, OnlineConfig, RefineConfig, ScoringPrecision, TrainConfig,
};
use crate::context::SubspaceContext;
use crate::memory::Memories;
use crate::meta_learner::MetaLearner;
use crate::pipeline::LtePipeline;
use crate::uis::UisMode;
use lte_data::schema::Attribute;
use lte_data::subspace::Subspace;
use lte_nn::Matrix;
use lte_preprocess::gmm::{Component, Gmm};
use lte_preprocess::{AttributeEncoder, EncoderConfig, EncoderKind, JenksBreaks, TableEncoder};
use std::fs;
use std::path::Path;

const MAGIC: &[u8; 4] = b"LTEP";

/// Most centers a loaded `Cu`, `Cs` or `Cq` may hold: 5× the paper's
/// largest center set (`kq = 200`), so a forged count cannot make
/// [`SubspaceContext::from_parts`] build huge proximity matrices.
const MAX_CENTERS: usize = 1 << 10;

/// Errors from saving/loading pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// I/O failure (message form).
    Io(String),
    /// Input does not start with the `LTEP` magic.
    BadMagic,
    /// Format version this build cannot read: anything but
    /// [`FORMAT_VERSION`] (decoding another layout with today's field
    /// order would misparse silently, so it is refused up front).
    UnsupportedVersion(u8),
    /// Truncated or structurally invalid payload.
    Corrupt(&'static str),
}

/// The one LTEP format version this build writes and reads. Versions 1
/// and 2 (config blocks without or with an older precision byte) are
/// refused with [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u8 = 3;

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not an LTE pipeline file"),
            PersistError::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v} (this build reads version \
                 {FORMAT_VERSION} only)"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt pipeline file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------- encoder

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
    }
    fn usizes(&mut self, xs: &[usize]) {
        self.usize(xs.len());
        for &x in xs {
            self.usize(x);
        }
    }
    fn rows(&mut self, rows: &[Vec<f64>]) {
        self.usize(rows.len());
        for r in rows {
            self.f64s(r);
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &v in m.data() {
            self.f64(v);
        }
    }
}

// ---------------------------------------------------------------- decoder

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        // `pos + n` could overflow for a forged `n`; the remainder cannot.
        if n > self.data.len() - self.pos {
            return Err(PersistError::Corrupt("unexpected end of data"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PersistError::Corrupt("length overflow"))
    }
    /// A length of at most `cap`.
    fn capped(&mut self, cap: usize, what: &'static str) -> Result<usize, PersistError> {
        let v = self.usize()?;
        if v > cap {
            return Err(PersistError::Corrupt(what));
        }
        Ok(v)
    }
    /// Fails unless `n` elements of at least `elem_bytes` bytes each fit in
    /// the bytes not yet read, so no length reserves more than the input
    /// holds.
    fn fits(&self, n: usize, elem_bytes: usize) -> Result<(), PersistError> {
        if n > (self.data.len() - self.pos) / elem_bytes {
            return Err(PersistError::Corrupt("length exceeds remaining bytes"));
        }
        Ok(())
    }
    /// A count of at most `cap` elements, each encoded in at least
    /// `elem_bytes` of the bytes not yet read.
    fn len(
        &mut self,
        cap: usize,
        elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, PersistError> {
        let v = self.capped(cap, what)?;
        self.fits(v, elem_bytes)?;
        Ok(v)
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn bool(&mut self) -> Result<bool, PersistError> {
        Ok(self.u8()? != 0)
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let n = self.len(1 << 20, 1, "string too long")?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| PersistError::Corrupt("invalid utf-8"))
    }
    fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len(1 << 28, 8, "vector too long")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }
    fn usizes(&mut self) -> Result<Vec<usize>, PersistError> {
        let n = self.len(1 << 20, 8, "vector too long")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.usize()?);
        }
        Ok(v)
    }
    /// At most `cap` rows.
    fn rows(&mut self, cap: usize, what: &'static str) -> Result<Vec<Vec<f64>>, PersistError> {
        // Each row carries at least its 8-byte length.
        let n = self.len(cap, 8, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f64s()?);
        }
        Ok(v)
    }
    fn matrix(&mut self) -> Result<Matrix, PersistError> {
        let rows = self.capped(1 << 20, "matrix too tall")?;
        let cols = self.capped(1 << 20, "matrix too wide")?;
        let n = rows
            .checked_mul(cols)
            .ok_or(PersistError::Corrupt("matrix size overflow"))?;
        self.fits(n, 8)?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

// ----------------------------------------------------------- config codec

fn put_config(e: &mut Enc, c: &LteConfig) {
    // MetaTaskConfig
    e.usize(c.task.ku);
    e.usize(c.task.ks);
    e.usize(c.task.kq);
    e.usize(c.task.delta);
    e.usize(c.task.mode.alpha);
    e.usize(c.task.mode.psi);
    e.f64(c.task.sample_fraction);
    e.usize(c.task.min_sample);
    e.usize(c.task.max_sample);
    e.usize(c.task.max_uis_retries);
    // NetConfig
    e.usize(c.net.ne);
    e.usize(c.net.clf_hidden);
    e.f64(c.net.expansion_frac);
    // TrainConfig
    e.usize(c.train.n_tasks);
    e.usize(c.train.epochs);
    e.usize(c.train.batch_size);
    e.usize(c.train.local_steps);
    e.f64(c.train.rho);
    e.f64(c.train.lambda);
    e.usize(c.train.m);
    e.f64(c.train.eta);
    e.f64(c.train.beta);
    e.f64(c.train.gamma);
    e.f64(c.train.sigma);
    e.bool(c.train.use_memories);
    e.f64(c.train.direct_weight);
    // RefineConfig
    e.f64(c.refine.nsup_frac);
    e.f64(c.refine.nsub_frac);
    // OnlineConfig
    e.usize(c.online.adapt_steps);
    e.f64(c.online.lr);
    e.usize(c.online.basic_steps);
    e.u8(match c.online.precision {
        ScoringPrecision::Exact => 0,
        ScoringPrecision::Fast => 1,
    });
    // EncoderConfig
    e.u8(match c.encoder.kind {
        EncoderKind::Auto => 0,
        EncoderKind::AllGmm => 1,
        EncoderKind::AllJkc => 2,
        EncoderKind::MinMax => 3,
    });
    e.usize(c.encoder.n_components);
    e.usize(c.encoder.n_intervals);
    e.f64(c.encoder.sample_fraction);
    e.usize(c.encoder.min_sample);
}

fn get_config(d: &mut Dec) -> Result<LteConfig, PersistError> {
    let task = MetaTaskConfig {
        ku: d.usize()?,
        ks: d.usize()?,
        kq: d.usize()?,
        delta: d.usize()?,
        mode: {
            let alpha = d.usize()?;
            let psi = d.usize()?;
            if alpha == 0 || psi == 0 {
                return Err(PersistError::Corrupt("invalid UIS mode"));
            }
            UisMode::new(alpha, psi)
        },
        sample_fraction: d.f64()?,
        min_sample: d.usize()?,
        max_sample: d.usize()?,
        max_uis_retries: d.usize()?,
    };
    let net = NetConfig {
        ne: d.usize()?,
        clf_hidden: d.usize()?,
        expansion_frac: d.f64()?,
    };
    let train = TrainConfig {
        n_tasks: d.usize()?,
        epochs: d.usize()?,
        batch_size: d.usize()?,
        local_steps: d.usize()?,
        rho: d.f64()?,
        lambda: d.f64()?,
        m: d.usize()?,
        eta: d.f64()?,
        beta: d.f64()?,
        gamma: d.f64()?,
        sigma: d.f64()?,
        use_memories: d.bool()?,
        direct_weight: d.f64()?,
    };
    let refine = RefineConfig {
        nsup_frac: d.f64()?,
        nsub_frac: d.f64()?,
    };
    let online = OnlineConfig {
        adapt_steps: d.usize()?,
        lr: d.f64()?,
        basic_steps: d.usize()?,
        precision: match d.u8()? {
            0 => ScoringPrecision::Exact,
            1 => ScoringPrecision::Fast,
            _ => return Err(PersistError::Corrupt("unknown scoring precision")),
        },
    };
    let encoder = EncoderConfig {
        kind: match d.u8()? {
            0 => EncoderKind::Auto,
            1 => EncoderKind::AllGmm,
            2 => EncoderKind::AllJkc,
            3 => EncoderKind::MinMax,
            _ => return Err(PersistError::Corrupt("unknown encoder kind")),
        },
        n_components: d.usize()?,
        n_intervals: d.usize()?,
        sample_fraction: d.f64()?,
        min_sample: d.usize()?,
    };
    Ok(LteConfig {
        task,
        net,
        train,
        refine,
        online,
        encoder,
    })
}

// ---------------------------------------------------------- encoder codec

fn put_attribute_encoder(e: &mut Enc, enc: &AttributeEncoder) {
    match enc {
        AttributeEncoder::Gmm(g) => {
            e.u8(0);
            e.usize(g.k());
            for c in g.components() {
                e.f64(c.weight);
                e.f64(c.mean);
                e.f64(c.std);
            }
        }
        AttributeEncoder::Jenks(j) => {
            e.u8(1);
            e.f64s(j.bounds());
        }
        AttributeEncoder::MinMax(attr) => {
            e.u8(2);
            e.str(&attr.name);
            e.f64(attr.lo);
            e.f64(attr.hi);
        }
    }
}

fn get_attribute_encoder(d: &mut Dec) -> Result<AttributeEncoder, PersistError> {
    Ok(match d.u8()? {
        0 => {
            // Weight, mean and std: 24 bytes per component.
            let k = d.len(1 << 16, 24, "too many GMM components")?;
            if k == 0 {
                return Err(PersistError::Corrupt("empty GMM"));
            }
            let mut comps = Vec::with_capacity(k);
            for _ in 0..k {
                comps.push(Component {
                    weight: d.f64()?,
                    mean: d.f64()?,
                    std: d.f64()?,
                });
            }
            AttributeEncoder::Gmm(Gmm::from_components(comps))
        }
        1 => {
            let bounds = d.f64s()?;
            if bounds.len() < 2 || bounds.windows(2).any(|w| w[0] > w[1]) {
                return Err(PersistError::Corrupt("invalid Jenks bounds"));
            }
            AttributeEncoder::Jenks(JenksBreaks::from_bounds(bounds))
        }
        2 => {
            let name = d.str()?;
            let lo = d.f64()?;
            let hi = d.f64()?;
            AttributeEncoder::MinMax(Attribute::new(name, lo, hi))
        }
        _ => return Err(PersistError::Corrupt("unknown attribute encoder")),
    })
}

// --------------------------------------------------------------- pipeline

/// `(|φR|, |φτ|, |φclf|)` of a learner with UIS width `ku` and tuple width
/// `nr` under `net`: the shapes [`UisClassifier::new`](crate::classifier::UisClassifier::new)
/// builds, each layer's weights plus its biases. `None` when a count
/// overflows.
fn phi_lens(
    net: &NetConfig,
    use_memories: bool,
    ku: usize,
    nr: usize,
) -> Option<(usize, usize, usize)> {
    let (ne, hidden) = (net.ne, net.clf_hidden);
    let embedding = |width: usize| width.checked_mul(ne)?.checked_add(ne);
    let clf_in = if use_memories { ne } else { ne.checked_mul(2)? };
    let clf = clf_in
        .checked_mul(hidden)?
        .checked_add(hidden)?
        .checked_add(hidden)?
        .checked_add(1)?;
    Some((embedding(ku)?, embedding(nr)?, clf))
}

/// Serialize a trained pipeline to bytes ([`FORMAT_VERSION`]).
pub fn pipeline_to_bytes(p: &LtePipeline) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(MAGIC);
    e.u8(FORMAT_VERSION);
    put_config(&mut e, p.config());
    e.usize(p.subspaces().len());
    for i in 0..p.subspaces().len() {
        let ctx = &p.contexts()[i];
        let learner = &p.learners()[i];

        e.usizes(p.subspaces()[i].attr_indices());
        e.rows(ctx.sample_rows());
        e.rows(ctx.cu());
        e.rows(ctx.cs());
        e.rows(ctx.cq());
        e.usize(ctx.encoder().encoders().len());
        for enc in ctx.encoder().encoders() {
            put_attribute_encoder(&mut e, enc);
        }

        let arch = learner.arch();
        e.usize(arch.ku);
        e.usize(arch.nr);
        let (phi_r, phi_t, phi_clf) = learner.phi();
        e.f64s(phi_r);
        e.f64s(phi_t);
        e.f64s(phi_clf);
        match learner.memories() {
            Some(mem) => {
                e.bool(true);
                e.matrix(&mem.mvr);
                e.matrix(&mem.mr);
                e.usize(mem.mcp.len());
                for slice in &mem.mcp {
                    e.matrix(slice);
                }
            }
            None => e.bool(false),
        }
    }
    e.buf
}

/// Deserialize a pipeline from bytes.
pub fn pipeline_from_bytes(data: &[u8]) -> Result<LtePipeline, PersistError> {
    let mut d = Dec::new(data);
    if d.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = d.u8()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let config = get_config(&mut d)?;
    if config.net.ne == 0 || config.net.clf_hidden == 0 {
        return Err(PersistError::Corrupt("empty network layer"));
    }
    if config.train.use_memories && config.train.m == 0 {
        return Err(PersistError::Corrupt("memories without modes"));
    }
    let n_subspaces = d.len(1 << 12, 1, "too many subspaces")?;
    if n_subspaces == 0 {
        return Err(PersistError::Corrupt("pipeline without subspaces"));
    }

    let mut subspaces = Vec::with_capacity(n_subspaces);
    let mut contexts = Vec::with_capacity(n_subspaces);
    let mut learners = Vec::with_capacity(n_subspaces);
    for _ in 0..n_subspaces {
        let attrs = d.usizes()?;
        let subspace = Subspace::new(attrs);
        let sample_rows = d.rows(1 << 24, "too many rows")?;
        let cu = d.rows(MAX_CENTERS, "too many centers")?;
        let cs = d.rows(MAX_CENTERS, "too many centers")?;
        let cq = d.rows(MAX_CENTERS, "too many centers")?;
        if cu.is_empty() || cs.is_empty() {
            return Err(PersistError::Corrupt("empty center sets"));
        }
        if [&cu, &cs, &cq]
            .iter()
            .any(|set| set.iter().any(|c| c.len() != subspace.dim()))
        {
            return Err(PersistError::Corrupt("center width mismatch"));
        }
        let n_encoders = d.len(1 << 12, 1, "too many encoders")?;
        let mut encoders = Vec::with_capacity(n_encoders);
        for _ in 0..n_encoders {
            encoders.push(get_attribute_encoder(&mut d)?);
        }
        let encoder = TableEncoder::from_encoders(encoders);

        // The learner is built only once every shape it allocates (`ku`,
        // `nr`, `ne`, `clf_hidden`, `m`) agrees with the φ vectors and
        // memories read here, whose sizes the input bounds.
        let ku = d.usize()?;
        let nr = d.usize()?;
        let phi_r = d.f64s()?;
        let phi_t = d.f64s()?;
        let phi_clf = d.f64s()?;
        let use_memories = config.train.use_memories;
        if phi_lens(&config.net, use_memories, ku, nr)
            != Some((phi_r.len(), phi_t.len(), phi_clf.len()))
        {
            return Err(PersistError::Corrupt("parameter shape mismatch"));
        }
        let memories = match (d.bool()?, use_memories) {
            (true, false) => return Err(PersistError::Corrupt("memories for memory-less config")),
            (false, true) => return Err(PersistError::Corrupt("missing memories")),
            (false, false) => None,
            (true, true) => {
                let mvr = d.matrix()?;
                let mr = d.matrix()?;
                let n_slices = d.len(1 << 10, 16, "too many memory modes")?;
                let mut mcp = Vec::with_capacity(n_slices);
                for _ in 0..n_slices {
                    mcp.push(d.matrix()?);
                }
                let (m, ne) = (config.train.m, config.net.ne);
                let shape = |x: &Matrix| (x.rows(), x.cols());
                if shape(&mvr) != (m, ku)
                    || shape(&mr) != (m, phi_r.len())
                    || mcp.len() != m
                    || mcp.iter().any(|slice| shape(slice) != (ne, 2 * ne))
                {
                    return Err(PersistError::Corrupt("memory shape mismatch"));
                }
                Some(Memories { mvr, mr, mcp })
            }
        };
        // `from_parts` builds the `|Cu|²` and `|Cs|·|Cu|` proximity
        // matrices, so `Cu` must be the learner's before it runs.
        if cu.len() != ku {
            return Err(PersistError::Corrupt("center count mismatch"));
        }
        contexts.push(SubspaceContext::from_parts(
            subspace.clone(),
            sample_rows,
            cu,
            cs,
            cq,
            encoder,
        ));
        subspaces.push(subspace);
        let mut learner = MetaLearner::new(ku, nr, &config.net, config.train.clone(), 0);
        learner.set_phi(phi_r, phi_t, phi_clf);
        if let Some(memories) = memories {
            learner.set_memories(memories);
        }
        learners.push(learner);
    }
    if d.pos != data.len() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    Ok(LtePipeline::from_parts(
        config, subspaces, contexts, learners,
    ))
}

/// Save a trained pipeline to a file.
pub fn save_pipeline(p: &LtePipeline, path: &Path) -> Result<(), PersistError> {
    fs::write(path, pipeline_to_bytes(p)).map_err(|e| PersistError::Io(e.to_string()))
}

/// Load a pipeline from a file.
pub fn load_pipeline(path: &Path) -> Result<LtePipeline, PersistError> {
    let data = fs::read(path).map_err(|e| PersistError::Io(e.to_string()))?;
    pipeline_from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Variant;
    use lte_data::generator::generate_sdss;
    use lte_data::subspace::decompose_sequential;

    fn trained_pipeline() -> (LtePipeline, Vec<Vec<f64>>) {
        let table = generate_sdss(3000, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 80;
        cfg.train.epochs = 2;
        let (p, _) = LtePipeline::offline(&table, decompose_sequential(4, 2), cfg, 5);
        let pool: Vec<Vec<f64>> = (0..300).map(|i| table.row(i).unwrap()).collect();
        (p, pool)
    }

    #[test]
    fn round_trip_preserves_predictions_exactly() {
        let (p, pool) = trained_pipeline();
        let bytes = pipeline_to_bytes(&p);
        let loaded = pipeline_from_bytes(&bytes).expect("round trip");

        let truth = p.generate_truth(UisMode::new(4, 8), 9, 0.2, 0.9);
        let truth2 = loaded.generate_truth(UisMode::new(4, 8), 9, 0.2, 0.9);
        for variant in [Variant::Basic, Variant::Meta, Variant::MetaStar] {
            let a = p.explore(&truth, &pool, variant, 3);
            let b = loaded.explore(&truth2, &pool, variant, 3);
            assert_eq!(a.confusion, b.confusion, "{variant:?} diverged");
        }
    }

    #[test]
    fn file_round_trip() {
        let (p, _) = trained_pipeline();
        let dir = std::env::temp_dir().join("lte_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pipeline.ltep");
        save_pipeline(&p, &path).expect("save");
        let loaded = load_pipeline(&path).expect("load");
        assert_eq!(loaded.subspaces().len(), 2);
        assert_eq!(
            loaded.learners()[0].phi().0,
            p.learners()[0].phi().0,
            "φR must survive the file round trip"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression (serving bugfix sweep): a version byte *newer* than this
    /// build must be refused with a clear `UnsupportedVersion` — decoding
    /// a future layout with today's field order would misparse silently.
    #[test]
    fn future_version_is_unsupported_not_misparsed() {
        let (p, _) = trained_pipeline();
        let mut bytes = pipeline_to_bytes(&p);
        bytes[4] = FORMAT_VERSION + 1;
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion(FORMAT_VERSION + 1)
        );
        // The error names the one version this build reads.
        let msg = PersistError::UnsupportedVersion(9).to_string();
        assert!(msg.contains("unsupported format version 9"), "{msg}");
        assert!(msg.contains("reads version 3 only"), "{msg}");
    }

    /// A version-1 file is refused rather than decoded with today's
    /// layout: this build reads version 3 only.
    #[test]
    fn v1_file_is_refused_as_unsupported_version() {
        let (p, _) = trained_pipeline();
        let mut bytes = pipeline_to_bytes(&p);
        assert_eq!(bytes[4], FORMAT_VERSION, "version byte");
        bytes[4] = 1;
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion(1)
        );
    }

    /// A version-2 file is refused rather than decoded with today's
    /// layout: this build reads version 3 only.
    #[test]
    fn v2_file_is_refused_as_unsupported_version() {
        let (p, _) = trained_pipeline();
        let mut bytes = pipeline_to_bytes(&p);
        assert_eq!(bytes[4], FORMAT_VERSION, "version byte");
        bytes[4] = 2;
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::UnsupportedVersion(2)
        );
    }

    /// A `Fast` pipeline round-trips its precision, and a precision byte
    /// outside `{0, 1}` is corruption, not a mode.
    #[test]
    fn v3_round_trips_fast_precision_and_refuses_unknown_precision() {
        let (mut p, _) = trained_pipeline();
        let exact = pipeline_to_bytes(&p);

        let mut online = p.config().online.clone();
        online.precision = ScoringPrecision::Fast;
        p.set_online(online);
        let fast = pipeline_to_bytes(&p);
        assert_eq!(fast[4], FORMAT_VERSION, "version byte");
        let loaded = pipeline_from_bytes(&fast).expect("v3 must load");
        assert_eq!(loaded.config().online.precision, ScoringPrecision::Fast);

        // The precision byte sits at a fixed offset only relative to the
        // config block, so find it by diffing the Exact and Fast encodings.
        let idx = exact
            .iter()
            .zip(&fast)
            .position(|(a, b)| a != b)
            .expect("encodings must differ at the precision byte");
        let mut forged = exact.clone();
        forged[idx] = 2;
        assert_eq!(
            pipeline_from_bytes(&forged).unwrap_err(),
            PersistError::Corrupt("unknown scoring precision")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            pipeline_from_bytes(b"nope").unwrap_err(),
            PersistError::BadMagic
        );
        assert_eq!(
            pipeline_from_bytes(b"LTEP\xff").unwrap_err(),
            PersistError::UnsupportedVersion(0xff)
        );
        assert_eq!(
            pipeline_from_bytes(b"LTEP\x00").unwrap_err(),
            PersistError::UnsupportedVersion(0)
        );
        // Truncation anywhere inside must be caught, not panic.
        let (p, _) = trained_pipeline();
        let bytes = pipeline_to_bytes(&p);
        for cut in [5usize, 50, 500, bytes.len() - 1] {
            let err = pipeline_from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    /// A pipeline over `dim`-wide subspaces, small enough to decode
    /// thousands of times.
    fn small_pipeline(dim: usize) -> LtePipeline {
        let table = generate_sdss(1500, 0);
        let mut cfg = LteConfig::reduced();
        cfg.train.n_tasks = 6;
        cfg.train.epochs = 1;
        LtePipeline::offline(&table, decompose_sequential(4, dim), cfg, 5).0
    }

    /// Offset of the first occurrence of `pattern` in `bytes`.
    fn find(bytes: &[u8], pattern: &[u8]) -> usize {
        bytes
            .windows(pattern.len())
            .position(|w| w == pattern)
            .expect("pattern present")
    }

    fn le(vs: &[u64]) -> Vec<u8> {
        vs.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn phi_lens_match_the_built_learner() {
        for use_memories in [true, false] {
            for (ku, nr, ne, clf_hidden) in [(1, 1, 1, 1), (40, 7, 32, 32), (5, 12, 3, 9)] {
                let net = NetConfig {
                    ne,
                    clf_hidden,
                    expansion_frac: 0.1,
                };
                let train = TrainConfig {
                    use_memories,
                    ..TrainConfig::reduced()
                };
                let learner = MetaLearner::new(ku, nr, &net, train, 1);
                let (r, t, c) = learner.phi();
                assert_eq!(
                    phi_lens(&net, use_memories, ku, nr),
                    Some((r.len(), t.len(), c.len()))
                );
            }
        }
        let net = NetConfig::reduced();
        assert_eq!(phi_lens(&net, true, usize::MAX, 1), None);
    }

    /// A learner whose `ku` claims 2^40 features is refused before any
    /// allocation sized by it (it used to abort the process).
    #[test]
    fn forged_ku_is_corrupt_not_an_allocation() {
        let p = small_pipeline(2);
        let mut bytes = pipeline_to_bytes(&p);
        let learner = &p.learners()[0];
        let (arch, phi_r) = (learner.arch(), learner.phi().0);
        let header = le(&[
            arch.ku as u64,
            arch.nr as u64,
            phi_r.len() as u64,
            phi_r[0].to_bits(),
        ]);
        let at = find(&bytes, &header);
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::Corrupt("parameter shape mismatch")
        );
    }

    /// An `MvR` header of 2^20 × 2^20 is refused before its 2^40 values
    /// are reserved (it used to abort the process).
    #[test]
    fn forged_matrix_header_is_corrupt_not_an_allocation() {
        let p = small_pipeline(2);
        let mut bytes = pipeline_to_bytes(&p);
        let mvr = &p.learners()[0].memories().expect("memories").mvr;
        let mut header = vec![1u8];
        header.extend(le(&[
            mvr.rows() as u64,
            mvr.cols() as u64,
            mvr.data()[0].to_bits(),
        ]));
        let at = find(&bytes, &header) + 1;
        bytes[at..at + 16].copy_from_slice(&le(&[1 << 20, 1 << 20]));
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::Corrupt("length exceeds remaining bytes")
        );
    }

    /// Every prefix of a valid file, cut at every byte of the header and
    /// then at a stride through the rest, fails with a typed error.
    #[test]
    fn every_prefix_is_an_error() {
        let bytes = pipeline_to_bytes(&small_pipeline(2));
        let cuts = (0..256).chain((256..bytes.len()).step_by(97));
        for cut in cuts {
            assert!(
                pipeline_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
        assert!(pipeline_from_bytes(&bytes).is_ok());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (p, _) = trained_pipeline();
        let mut bytes = pipeline_to_bytes(&p);
        bytes.push(0);
        assert_eq!(
            pipeline_from_bytes(&bytes).unwrap_err(),
            PersistError::Corrupt("trailing bytes")
        );
    }

    #[test]
    fn loading_missing_file_is_io_error() {
        let err = load_pipeline(Path::new("/definitely/not/here.ltep")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    /// The first subspace's `Cu` or `Cs` (`set` 0 or 1) in `bytes`: the
    /// offset of its count, its center count and the center width.
    fn center_set(p: &LtePipeline, bytes: &[u8], set: usize) -> (usize, usize, usize) {
        let ctx = &p.contexts()[0];
        let centers = [ctx.cu(), ctx.cs()][set];
        let (n, dim) = (centers.len(), centers[0].len());
        let at = find(bytes, &le(&[n as u64, dim as u64, centers[0][0].to_bits()]));
        (at, n, dim)
    }

    /// A center count over the cap, a `Cu` one center longer than the
    /// learner's `ku`, and a center wider than its subspace are each
    /// refused before the proximity matrices are built.
    #[test]
    fn forged_center_sets_are_corrupt() {
        let p = small_pipeline(2);
        let bytes = pipeline_to_bytes(&p);

        let (at, _, _) = center_set(&p, &bytes, 1);
        let mut forged = bytes.clone();
        forged[at..at + 8].copy_from_slice(&3000u64.to_le_bytes());
        assert_eq!(
            pipeline_from_bytes(&forged).unwrap_err(),
            PersistError::Corrupt("too many centers")
        );

        let (at, n, dim) = center_set(&p, &bytes, 0);
        let mut extra = bytes[..at].to_vec();
        extra.extend(le(&[n as u64 + 1, dim as u64]));
        extra.extend(le(&vec![0.5f64.to_bits(); dim]));
        extra.extend(&bytes[at + 8..]);
        assert_eq!(
            pipeline_from_bytes(&extra).unwrap_err(),
            PersistError::Corrupt("center count mismatch")
        );

        let first = at + 16;
        let mut wide = bytes[..at + 8].to_vec();
        wide.extend(le(&[dim as u64 + 1]));
        wide.extend(&bytes[first..first + 8 * dim]);
        wide.extend(le(&[0.5f64.to_bits()]));
        wide.extend(&bytes[first + 8 * dim..]);
        assert_eq!(
            pipeline_from_bytes(&wide).unwrap_err(),
            PersistError::Corrupt("center width mismatch")
        );
    }

    /// Loading stores every field as read, so a reloaded pipeline
    /// re-encodes to the bytes it was loaded from.
    #[test]
    fn save_load_save_is_byte_stable() {
        for dim in [1, 2] {
            let bytes = pipeline_to_bytes(&small_pipeline(dim));
            let loaded = pipeline_from_bytes(&bytes).expect("round trip");
            let again = pipeline_to_bytes(&loaded);
            let first_diff = bytes.iter().zip(&again).position(|(a, b)| a != b);
            assert_eq!(first_diff, None, "{dim}-D: re-encoding differs");
            assert_eq!(again.len(), bytes.len(), "{dim}-D: re-encoded length");
        }
    }

    /// A length past the end fails typed, even one so large that `pos + n`
    /// would overflow once a byte has been read.
    #[test]
    fn take_past_the_end_is_corrupt() {
        let end = PersistError::Corrupt("unexpected end of data");
        assert_eq!(Dec::new(&[0; 3]).take(usize::MAX).unwrap_err(), end);
        let mut d = Dec::new(&[0; 3]);
        assert_eq!(d.take(1), Ok(&[0u8][..]));
        assert_eq!(d.take(usize::MAX).unwrap_err(), end);
        assert_eq!(d.take(3).unwrap_err(), end);
        assert_eq!(d.take(2), Ok(&[0u8, 0][..]));
    }
}
