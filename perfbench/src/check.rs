//! Output checks: every served prediction against a direct
//! `InferenceEngine::classify` by an engine of the same version.

use crate::trace::Tracer;
use oplix_nn::ctensor::CTensor;
use oplix_nn::tensor::Tensor;
use oplixnet::engine::InferenceEngine;
use oplixnet::Error;

/// Rows `start..start + len` of a batch-first view, as their own view.
pub fn slice_rows(view: &CTensor, start: usize, len: usize) -> CTensor {
    let shape = view.shape();
    let width: usize = shape[1..].iter().product();
    let mut sub_shape = shape.to_vec();
    sub_shape[0] = len;
    let take = |t: &Tensor| {
        Tensor::from_vec(
            &sub_shape,
            t.as_slice()[start * width..(start + len) * width].to_vec(),
        )
    };
    CTensor::new(take(&view.re), take(&view.im))
}

/// The golden classes of every row of `pool`: direct `classify` calls
/// by `engine`, one 64-row serving window per call, each call an
/// `engine.classify` span when tracing.
///
/// # Errors
///
/// Whatever `classify` returns.
pub fn golden(
    engine: &mut InferenceEngine,
    pool: &CTensor,
    tracer: &Tracer,
) -> Result<Vec<usize>, Error> {
    let n = pool.shape()[0];
    let mut out = Vec::with_capacity(n);
    for start in (0..n).step_by(64) {
        let window = slice_rows(pool, start, 64.min(n - start));
        out.extend(tracer.time(0, "engine.classify", || engine.classify(&window))?);
    }
    Ok(out)
}

/// Running golden and label checks over served predictions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Predictions checked.
    pub checked: u64,
    /// Predictions equal to the golden class of their row.
    pub agreed: u64,
    /// Predictions equal to their row's label.
    pub correct: u64,
}

impl Tally {
    /// Checks one prediction of `row` against the golden classes of the
    /// version that served it and against the labels. A missing golden
    /// table (`None`) counts as a disagreement.
    pub fn observe(
        &mut self,
        golden: Option<&[usize]>,
        labels: &[usize],
        row: usize,
        class: usize,
    ) {
        self.checked += 1;
        if golden.and_then(|g| g.get(row)) == Some(&class) {
            self.agreed += 1;
        }
        if labels.get(row) == Some(&class) {
            self.correct += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.agreed += other.agreed;
        self.correct += other.correct;
    }

    /// Share of predictions that agreed with the golden ones (1 when
    /// nothing was checked).
    pub fn agreement(&self) -> f64 {
        if self.checked == 0 {
            1.0
        } else {
            self.agreed as f64 / self.checked as f64
        }
    }

    /// Share of predictions equal to their label (0 when nothing was
    /// checked).
    pub fn accuracy(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.correct as f64 / self.checked as f64
        }
    }
}
