use rand::Rng;

use drcell_linalg::Matrix;
use drcell_neural::{
    Activation, Loss, Mlp, MlpConfig, NeuralError, Optimizer, Parameterized, RecurrentNetwork,
    RecurrentNetworkConfig,
};

/// A trainable Q-function over `k × m` state-history matrices.
///
/// Two implementations mirror the paper's §4.3 discussion: a dense network
/// on the flattened history ([`MlpQNetwork`], "one common way is using
/// dense layers") and the recurrent DRQN ([`DrqnQNetwork`]) that feeds the
/// history through an LSTM to "catch the temporal patterns".
pub trait QNetwork: Parameterized + Clone + Send {
    /// Q-values, one per action, for a state.
    fn q_values(&self, state: &Matrix) -> Vec<f64>;

    /// Q-values for a batch of states in one vectorised sweep
    /// (`batch × num_actions`). Row `i` equals `q_values(states[i])`
    /// bit-for-bit — the replay-minibatch fast path of the training loop.
    fn q_values_batch(&self, states: &[&Matrix]) -> Matrix;

    /// One optimisation step towards a `batch × num_actions` target-Q
    /// matrix; returns the batch loss.
    fn train_batch(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64;

    /// One optimisation step where `make_targets` builds the target-Q
    /// matrix from the batch predictions — the TD fast path: the training
    /// forward pass doubles as the target-vector base, so `train_step`
    /// needs one forward through the online network instead of two.
    fn train_td(
        &mut self,
        states: &[&Matrix],
        make_targets: &mut dyn FnMut(&Matrix) -> Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64;

    /// The pinned scalar (pre-vectorisation) training step — the oracle
    /// for trace-equivalence tests and the regression-bench baseline.
    fn train_batch_reference(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64;

    /// Number of actions.
    fn num_actions(&self) -> usize;
}

/// Dense Q-network: flattens the `k × m` history and passes it through an
/// MLP. The DQN ablation baseline.
#[derive(Debug, Clone)]
pub struct MlpQNetwork {
    mlp: Mlp,
    history: usize,
    cells: usize,
}

impl MlpQNetwork {
    /// Builds a dense Q-network for `history` cycles of `cells` cells, with
    /// the given hidden layer sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`NeuralError::InvalidConfig`] for bad sizes.
    pub fn new<R: Rng + ?Sized>(
        history: usize,
        cells: usize,
        hidden: &[usize],
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        let mut sizes = Vec::with_capacity(hidden.len() + 2);
        sizes.push(history * cells);
        sizes.extend_from_slice(hidden);
        sizes.push(cells);
        let mlp = Mlp::new(
            &MlpConfig {
                layer_sizes: sizes,
                hidden_activation: Activation::Relu,
                output_activation: Activation::Identity,
            },
            rng,
        )?;
        Ok(MlpQNetwork {
            mlp,
            history,
            cells,
        })
    }

    /// The expected history length `k`.
    pub fn history(&self) -> usize {
        self.history
    }

    fn check_shape(&self, state: &Matrix) {
        assert_eq!(
            state.shape(),
            (self.history, self.cells),
            "state must be history × cells"
        );
    }

    /// Stacks `k × m` histories into one `batch × (k·m)` design matrix.
    fn stack(&self, states: &[&Matrix]) -> Matrix {
        assert!(!states.is_empty(), "empty batch");
        let width = self.history * self.cells;
        let mut data = Vec::with_capacity(states.len() * width);
        for s in states {
            self.check_shape(s);
            data.extend_from_slice(s.as_slice());
        }
        Matrix::from_vec(states.len(), width, data).expect("uniform state shapes")
    }
}

impl QNetwork for MlpQNetwork {
    fn q_values(&self, state: &Matrix) -> Vec<f64> {
        self.check_shape(state);
        self.mlp.forward(state.as_slice())
    }

    fn q_values_batch(&self, states: &[&Matrix]) -> Matrix {
        self.mlp.forward_batch(&self.stack(states))
    }

    fn train_batch(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let x = self.stack(states);
        self.mlp.train_on_batch(&x, targets, loss, optimizer)
    }

    fn train_td(
        &mut self,
        states: &[&Matrix],
        make_targets: &mut dyn FnMut(&Matrix) -> Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let x = self.stack(states);
        self.mlp
            .train_on_batch_td(&x, make_targets, loss, optimizer)
    }

    fn train_batch_reference(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        let x = self.stack(states);
        self.mlp
            .train_on_batch_reference(&x, targets, loss, optimizer)
    }

    fn num_actions(&self) -> usize {
        self.cells
    }
}

impl Parameterized for MlpQNetwork {
    fn param_len(&self) -> usize {
        self.mlp.param_len()
    }
    fn params(&self) -> Vec<f64> {
        self.mlp.params()
    }
    fn set_params(&mut self, params: &[f64]) {
        self.mlp.set_params(params);
    }
    fn grads(&self) -> Vec<f64> {
        self.mlp.grads()
    }
    fn zero_grads(&mut self) {
        self.mlp.zero_grads();
    }
}

/// Recurrent Q-network (DRQN): the `k × m` history is consumed as a
/// `k`-step sequence by an LSTM whose final hidden state drives a linear
/// Q-value head — the paper's proposed architecture (§4.3, eq. 8).
#[derive(Debug, Clone)]
pub struct DrqnQNetwork {
    net: RecurrentNetwork,
}

impl DrqnQNetwork {
    /// Builds a DRQN for `cells` cells with the given LSTM hidden size.
    ///
    /// # Errors
    ///
    /// Propagates [`NeuralError::InvalidConfig`] for zero sizes.
    pub fn new<R: Rng + ?Sized>(
        cells: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        let net = RecurrentNetwork::new(
            &RecurrentNetworkConfig {
                input_dim: cells,
                hidden_dim: hidden,
                output_dim: cells,
            },
            rng,
        )?;
        Ok(DrqnQNetwork { net })
    }
}

impl QNetwork for DrqnQNetwork {
    fn q_values(&self, state: &Matrix) -> Vec<f64> {
        self.net.forward(state)
    }

    fn q_values_batch(&self, states: &[&Matrix]) -> Matrix {
        self.net.forward_batch(states)
    }

    fn train_batch(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        self.net.train_on_batch(states, targets, loss, optimizer)
    }

    fn train_td(
        &mut self,
        states: &[&Matrix],
        make_targets: &mut dyn FnMut(&Matrix) -> Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        self.net
            .train_on_batch_td(states, make_targets, loss, optimizer)
    }

    fn train_batch_reference(
        &mut self,
        states: &[&Matrix],
        targets: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        self.net
            .train_on_batch_reference(states, targets, loss, optimizer)
    }

    fn num_actions(&self) -> usize {
        self.net.output_dim()
    }
}

impl Parameterized for DrqnQNetwork {
    fn param_len(&self) -> usize {
        self.net.param_len()
    }
    fn params(&self) -> Vec<f64> {
        self.net.params()
    }
    fn set_params(&mut self, params: &[f64]) {
        self.net.set_params(params);
    }
    fn grads(&self) -> Vec<f64> {
        self.net.grads()
    }
    fn zero_grads(&mut self) {
        self.net.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_neural::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_qnet_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = MlpQNetwork::new(3, 5, &[16], &mut rng).unwrap();
        assert_eq!(q.num_actions(), 5);
        assert_eq!(q.history(), 3);
        let v = q.q_values(&Matrix::zeros(3, 5));
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn drqn_qnet_accepts_variable_history() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = DrqnQNetwork::new(4, 8, &mut rng).unwrap();
        assert_eq!(q.q_values(&Matrix::zeros(1, 4)).len(), 4);
        assert_eq!(q.q_values(&Matrix::zeros(6, 4)).len(), 4);
    }

    #[test]
    #[should_panic(expected = "history × cells")]
    fn mlp_qnet_rejects_wrong_history() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = MlpQNetwork::new(2, 3, &[8], &mut rng).unwrap();
        let _ = q.q_values(&Matrix::zeros(3, 3));
    }

    #[test]
    fn both_networks_fit_simple_targets() {
        let mut rng = StdRng::seed_from_u64(3);
        let s0 = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let s1 = Matrix::from_rows(&[vec![0.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let states = vec![&s0, &s1];
        let targets = Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();

        let mut mlp_q = MlpQNetwork::new(2, 2, &[16], &mut rng).unwrap();
        let mut opt = Adam::new(0.02);
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            last = mlp_q.train_batch(&states, &targets, Loss::Mse, &mut opt);
        }
        assert!(last < 0.05, "mlp loss {last}");

        let mut drqn_q = DrqnQNetwork::new(2, 12, &mut rng).unwrap();
        let mut opt = Adam::new(0.02);
        for _ in 0..600 {
            last = drqn_q.train_batch(&states, &targets, Loss::Mse, &mut opt);
        }
        assert!(last < 0.05, "drqn loss {last}");
    }

    #[test]
    fn q_values_batch_matches_single_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let s0 = Matrix::from_fn(3, 4, |r, c| (r as f64 - c as f64) * 0.25);
        let s1 = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f64 * 0.31).sin());
        let states = vec![&s0, &s1];

        let mlp_q = MlpQNetwork::new(3, 4, &[16], &mut rng).unwrap();
        let batch = mlp_q.q_values_batch(&states);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(batch.row(i), mlp_q.q_values(s).as_slice(), "mlp row {i}");
        }

        let drqn_q = DrqnQNetwork::new(4, 8, &mut rng).unwrap();
        let batch = drqn_q.q_values_batch(&states);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(batch.row(i), drqn_q.q_values(s).as_slice(), "drqn row {i}");
        }
    }

    #[test]
    fn parameterized_passthrough() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut q = DrqnQNetwork::new(3, 4, &mut rng).unwrap();
        let p = q.params();
        assert_eq!(p.len(), q.param_len());
        q.set_params(&p);
        q.zero_grads();
        assert!(q.grads().iter().all(|&g| g == 0.0));
    }
}
