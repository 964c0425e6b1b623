use rand::Rng;

use drcell_linalg::Matrix;

use crate::{Activation, DenseLayer, Loss, LstmLayer, NeuralError, Optimizer, Parameterized};

/// Configuration of the recurrent Q-network (DRQN).
#[derive(Debug, Clone, PartialEq)]
pub struct RecurrentNetworkConfig {
    /// Input width per time step (the per-cycle cell-selection vector, so
    /// `m` cells).
    pub input_dim: usize,
    /// LSTM hidden size.
    pub hidden_dim: usize,
    /// Output width (Q-values, one per cell, so `m` again for DR-Cell).
    pub output_dim: usize,
}

/// The paper's DRQN topology (§4.3): an LSTM over the `k` most recent
/// per-cycle selection vectors, followed by a linear head mapping the final
/// hidden state to one Q-value per action.
///
/// ```
/// use drcell_neural::{RecurrentNetwork, RecurrentNetworkConfig};
/// use drcell_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let net = RecurrentNetwork::new(
///     &RecurrentNetworkConfig { input_dim: 4, hidden_dim: 8, output_dim: 4 },
///     &mut rng,
/// ).unwrap();
/// let state = Matrix::zeros(3, 4); // 3-cycle history, 4 cells
/// let q = net.forward(&state);
/// assert_eq!(q.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct RecurrentNetwork {
    lstm: LstmLayer,
    head: DenseLayer,
}

impl RecurrentNetwork {
    /// Builds the network with fresh parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] for zero dimensions.
    pub fn new<R: Rng + ?Sized>(
        config: &RecurrentNetworkConfig,
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        let lstm = LstmLayer::new(config.input_dim, config.hidden_dim, rng)?;
        let head = DenseLayer::new(
            config.hidden_dim,
            config.output_dim,
            Activation::Identity,
            rng,
        )?;
        Ok(RecurrentNetwork { lstm, head })
    }

    /// Number of outputs (actions).
    pub fn output_dim(&self) -> usize {
        self.head.out_dim()
    }

    /// Q-values for a state sequence (`steps × input_dim`).
    ///
    /// # Panics
    ///
    /// Panics if the sequence width differs from `input_dim` or is empty.
    pub fn forward(&self, seq: &Matrix) -> Vec<f64> {
        let h = self.lstm.forward(seq);
        self.head.forward(&h)
    }

    /// Batched Q-values: sequences are grouped by length and each group
    /// runs through the GEMM-backed lock-step LSTM, so a replay minibatch
    /// of uniform `k × m` histories costs one batched sweep instead of
    /// `batch` scalar ones. Row `i` of the result is `forward(seqs[i])`
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty or any sequence is empty / of the wrong
    /// width.
    pub fn forward_batch(&self, seqs: &[&Matrix]) -> Matrix {
        let mut out = Matrix::zeros(seqs.len(), self.output_dim());
        for (_, idxs) in group_by_len(seqs) {
            let group: Vec<&Matrix> = idxs.iter().map(|&i| seqs[i]).collect();
            let cache = self.lstm.forward_batch_cached(&group);
            let (_, post) = self.head.forward_batch(cache.final_hidden());
            for (r, &i) in idxs.iter().enumerate() {
                out.set_row(i, post.row(r));
            }
        }
        out
    }

    /// One optimisation step on a batch of sequences against a
    /// `batch × output_dim` target matrix. Sequences are grouped by length
    /// and each group trains through the batched LSTM/head kernels; the
    /// returned value is the mean per-sample loss, matching the historical
    /// per-sample implementation
    /// ([`RecurrentNetwork::train_on_batch_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_on_batch(
        &mut self,
        seqs: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        assert_eq!(seqs.len(), targets.rows(), "batch size mismatch");
        self.train_on_batch_td(seqs, &mut |_| targets.clone(), loss, optimizer)
    }

    /// One optimisation step where the targets are derived from the batch
    /// predictions (`make_targets` maps the `batch × output_dim` forward
    /// output to the regression targets) — the TD-learning fast path that
    /// reuses the training forward pass for target construction. See
    /// [`crate::Mlp::train_on_batch_td`].
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_on_batch_td(
        &mut self,
        seqs: &[&Matrix],
        make_targets: &mut dyn FnMut(&Matrix) -> Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        assert!(!seqs.is_empty(), "empty batch");
        let batch = seqs.len() as f64;
        let out = self.output_dim();

        // Forward every group once, keeping the caches for backward.
        let mut groups = Vec::new();
        let mut pred = Matrix::zeros(seqs.len(), out);
        for (_, idxs) in group_by_len(seqs) {
            let group: Vec<&Matrix> = idxs.iter().map(|&i| seqs[i]).collect();
            let cache = self.lstm.forward_batch_cached(&group);
            let (pre, post) = self.head.forward_batch(cache.final_hidden());
            for (r, &i) in idxs.iter().enumerate() {
                pred.set_row(i, post.row(r));
            }
            groups.push((idxs, cache, pre, post));
        }

        let targets = make_targets(&pred);
        assert_eq!(targets.shape(), pred.shape(), "target shape mismatch");

        self.zero_grads();
        let mut total_loss = 0.0;
        for (idxs, cache, pre, post) in &groups {
            let bg = idxs.len();
            let tg = Matrix::from_fn(bg, out, |r, c| targets[(idxs[r], c)]);
            let (l, mut dpred) = loss.evaluate(post.as_slice(), tg.as_slice());
            // `evaluate` averages over the group's elements; rescale to the
            // historical per-sample-mean-over-the-whole-batch convention.
            total_loss += l * bg as f64;
            for g in &mut dpred {
                *g *= bg as f64 / batch;
            }
            let d_post = Matrix::from_vec(bg, out, dpred).expect("gradient has output shape");
            let dh = self.head.backward_batch(cache.final_hidden(), pre, &d_post);
            self.lstm.backward_batch(cache, &dh);
        }

        let mut params = self.params();
        let grads = self.grads();
        optimizer.step(&mut params, &grads);
        self.set_params(&params);
        total_loss / batch
    }

    /// The pinned pre-vectorisation training step: one scalar BPTT pass per
    /// sample, exactly as the original implementation — the oracle for
    /// trace-equivalence tests and the regression-bench baseline.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_on_batch_reference(
        &mut self,
        seqs: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        assert_eq!(seqs.len(), targets.rows(), "batch size mismatch");
        assert!(!seqs.is_empty(), "empty batch");
        assert_eq!(targets.cols(), self.output_dim(), "target width");
        let batch = seqs.len() as f64;

        self.zero_grads();
        let mut total_loss = 0.0;
        for (seq, target) in seqs.iter().zip(targets.rows_iter()) {
            let cache = self.lstm.forward_cached(seq);
            let h = Matrix::row_vector(cache.final_hidden());
            let (pre, post) = self.head.forward_batch_reference(&h);
            let (l, mut dpred) = loss.evaluate(post.as_slice(), target);
            total_loss += l;
            // Average the gradient over the batch.
            for g in &mut dpred {
                *g /= batch;
            }
            let d_post =
                Matrix::from_vec(1, self.output_dim(), dpred).expect("gradient has output shape");
            let dh = self.head.backward_batch_reference(&h, &pre, &d_post);
            let _ = self.lstm.backward(&cache, dh.row(0));
        }

        let mut params = self.params();
        let grads = self.grads();
        optimizer.step(&mut params, &grads);
        self.set_params(&params);
        total_loss / batch
    }
}

/// Groups sequence indices by length, preserving first-occurrence order of
/// the lengths and sample order within each group (so the uniform-history
/// hot path is a single group in original order).
fn group_by_len(seqs: &[&Matrix]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, s) in seqs.iter().enumerate() {
        match groups.iter_mut().find(|(len, _)| *len == s.rows()) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((s.rows(), vec![i])),
        }
    }
    groups
}

impl Parameterized for RecurrentNetwork {
    fn param_len(&self) -> usize {
        self.lstm.param_len() + self.head.param_len()
    }

    fn params(&self) -> Vec<f64> {
        let mut out = self.lstm.params();
        out.extend(self.head.params());
        out
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.param_len(), "param length mismatch");
        let n = self.lstm.param_len();
        self.lstm.set_params(&params[..n]);
        self.head.set_params(&params[n..]);
    }

    fn grads(&self) -> Vec<f64> {
        let mut out = self.lstm.grads();
        out.extend(self.head.grads());
        out
    }

    fn zero_grads(&mut self) {
        self.lstm.zero_grads();
        self.head.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> RecurrentNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        RecurrentNetwork::new(
            &RecurrentNetworkConfig {
                input_dim: 3,
                hidden_dim: 6,
                output_dim: 2,
            },
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn forward_shape() {
        let n = net(1);
        let q = n.forward(&Matrix::zeros(4, 3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn learns_sequence_dependent_function() {
        // Target depends on *which step* carried the flag: only a recurrent
        // model can separate these inputs.
        let mut n = net(2);
        let seq_a = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]]).unwrap();
        let seq_b = Matrix::from_rows(&[vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]).unwrap();
        let seqs = vec![&seq_a, &seq_b];
        let targets = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let mut opt = Adam::new(0.02);
        let mut last = f64::INFINITY;
        for _ in 0..800 {
            last = n.train_on_batch(&seqs, &targets, Loss::Mse, &mut opt);
        }
        assert!(last < 0.01, "sequence loss {last}");
        let qa = n.forward(&seq_a);
        let qb = n.forward(&seq_b);
        assert!(qa[0] > qa[1], "qa = {qa:?}");
        assert!(qb[1] > qb[0], "qb = {qb:?}");
    }

    #[test]
    fn gradient_check_end_to_end() {
        let h = 1e-6;
        let mut n = net(3);
        let seq = Matrix::from_rows(&[vec![0.2, -0.1, 0.4], vec![0.0, 0.3, -0.2]]).unwrap();
        let target = vec![0.7, -0.3];

        // Analytic gradients (replicate train_on_batch without the update).
        n.zero_grads();
        let cache = n.lstm.forward_cached(&seq);
        let hm = Matrix::row_vector(cache.final_hidden());
        let (pre, post) = n.head.forward_batch(&hm);
        let (_, dpred) = Loss::Mse.evaluate(post.as_slice(), &target);
        let d_post = Matrix::from_vec(1, 2, dpred).unwrap();
        let dh = n.head.backward_batch(&hm, &pre, &d_post);
        let _ = n.lstm.backward(&cache, dh.row(0));
        let analytic = n.grads();

        let base = n.params();
        let loss_at = |n: &RecurrentNetwork, params: &[f64]| {
            let mut nc = n.clone();
            nc.set_params(params);
            let pred = nc.forward(&seq);
            Loss::Mse.evaluate(&pred, &target).0
        };
        for pi in (0..base.len()).step_by(7) {
            // Every 7th parameter keeps the test fast while covering all
            // parameter blocks.
            let mut pp = base.clone();
            pp[pi] += h;
            let up = loss_at(&n, &pp);
            pp[pi] -= 2.0 * h;
            let down = loss_at(&n, &pp);
            let num = (up - down) / (2.0 * h);
            assert!(
                (num - analytic[pi]).abs() < 1e-5,
                "param {pi}: numeric {num} vs analytic {}",
                analytic[pi]
            );
        }
    }

    #[test]
    fn transfer_learning_param_copy() {
        // The §4.4 mechanism: copy source params into a fresh target net.
        let source = net(4);
        let mut target = net(5);
        assert_ne!(source.params(), target.params());
        target.set_params(&source.params());
        assert_eq!(source.params(), target.params());
        let s = Matrix::zeros(2, 3);
        assert_eq!(source.forward(&s), target.forward(&s));
    }

    #[test]
    fn batch_training_handles_variable_sequence_lengths() {
        let mut n = net(6);
        let (a, b) = (Matrix::zeros(1, 3), Matrix::zeros(4, 3));
        let seqs = vec![&a, &b];
        let targets = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap();
        let mut opt = Adam::new(0.01);
        let l = n.train_on_batch(&seqs, &targets, Loss::Mse, &mut opt);
        assert!(l.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut n = net(7);
        let mut opt = Adam::new(0.01);
        n.train_on_batch(&[], &Matrix::zeros(0, 2), Loss::Mse, &mut opt);
    }

    #[test]
    fn forward_batch_matches_single_bitwise() {
        let n = net(8);
        let s1 = Matrix::from_fn(3, 3, |r, c| (r as f64 - c as f64) * 0.3);
        let s2 = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 * 0.1 - 0.4);
        let s3 = Matrix::from_fn(5, 3, |r, c| (r as f64 * 0.2).sin() + c as f64 * 0.05);
        let seqs = vec![&s1, &s2, &s3];
        let batch = n.forward_batch(&seqs);
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(
                batch.row(i),
                n.forward(s).as_slice(),
                "batched row {i} drifted from the scalar forward"
            );
        }
    }

    /// The batched (GEMM, grouped-by-length) training step must track the
    /// per-sample scalar reference: identical loss trace and final
    /// parameters to tight tolerance over a multi-step run.
    #[test]
    fn batched_training_matches_reference_trace() {
        let mut batched = net(9);
        let mut reference = batched.clone();
        let s1 = Matrix::from_fn(3, 3, |r, c| ((r + c) as f64 * 0.7).sin() * 0.5);
        let s2 = Matrix::from_fn(3, 3, |r, c| (r as f64 - 1.0) * 0.2 + c as f64 * 0.1);
        let s3 = Matrix::from_fn(3, 3, |r, c| ((r * c) as f64).cos() * 0.3);
        let seqs = vec![&s1, &s2, &s3];
        let targets =
            Matrix::from_rows(&[vec![0.4, -0.2], vec![-0.6, 0.1], vec![0.2, 0.9]]).unwrap();
        let mut opt_b = Adam::new(0.01);
        let mut opt_r = Adam::new(0.01);
        for step in 0..40 {
            let lb = batched.train_on_batch(&seqs, &targets, Loss::Mse, &mut opt_b);
            let lr = reference.train_on_batch_reference(&seqs, &targets, Loss::Mse, &mut opt_r);
            assert!(
                (lb - lr).abs() <= 1e-9,
                "step {step}: batched loss {lb} vs reference {lr}"
            );
        }
        for (pb, pr) in batched.params().iter().zip(reference.params()) {
            assert!((pb - pr).abs() <= 1e-9, "params drifted: {pb} vs {pr}");
        }
    }
}
