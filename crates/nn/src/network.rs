//! A complete trainable network: complex body + detection head.

use crate::ctensor::CTensor;
use crate::head::Head;
use crate::layers::{CLayer, CSequential};
use crate::param::ParamVisitor;
use crate::tensor::Tensor;

/// A complex-bodied classifier producing real logits.
///
/// All four of the paper's network families (Table I) are instances:
/// the body determines SCVNN/CVNN/RVNN behaviour (layer construction and
/// input view), the head models the optical detection scheme.
pub struct Network {
    body: CSequential,
    head: Box<dyn Head>,
}

impl Network {
    /// Assembles a network.
    pub fn new(body: CSequential, head: Box<dyn Head>) -> Self {
        Network { body, head }
    }

    /// Forward pass to logits.
    pub fn forward(&mut self, x: &CTensor, train: bool) -> Tensor {
        let z = self.body.forward(x, train);
        self.head.forward(&z, train)
    }

    /// Backward pass from a logit gradient; accumulates parameter
    /// gradients. The input gradient is not computed: the body runs
    /// [`CLayer::backward_params`], so its first layer skips it.
    pub fn backward(&mut self, dlogits: &Tensor) {
        let dz = self.head.backward(dlogits);
        self.body.backward_params(&dz);
    }

    /// Visits every trainable parameter (body first, head last) in a
    /// stable order.
    pub fn visit_params(&mut self, visitor: &mut ParamVisitor) {
        self.body.visit_params(visitor);
        self.head.visit_params(visitor);
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Post-optimiser hook (unitary re-projection etc.).
    pub fn post_step(&mut self) {
        self.head.post_step();
    }

    /// Total number of scalar parameters currently registered.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.numel());
        n
    }

    /// Immutable access to the body (for hardware deployment).
    pub fn body(&self) -> &CSequential {
        &self.body
    }

    /// Immutable access to the head (for hardware deployment of
    /// decoder-bearing heads).
    pub fn head(&self) -> &dyn Head {
        self.head.as_ref()
    }

    /// Mutable access to the body.
    pub fn body_mut(&mut self) -> &mut CSequential {
        &mut self.body
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network({:?})", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::{MergeHead, ReHead};
    use crate::layers::{CDense, CRelu};
    use crate::loss::cross_entropy;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_backward_step_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let body = CSequential::new()
            .push(CDense::new(4, 8, &mut rng))
            .push(CRelu::new())
            .push(CDense::new(8, 4, &mut rng)); // 2 classes, doubled for merge
        let mut net = Network::new(body, Box::new(MergeHead::new()));

        // A tiny separable problem.
        let x = CTensor::new(
            Tensor::from_vec(
                &[4, 4],
                vec![
                    1.0, 0.0, 1.0, 0.0, 0.9, 0.1, 1.1, 0.0, 0.0, 1.0, 0.0, 1.0, 0.1, 0.9, 0.0, 1.1,
                ],
            ),
            Tensor::zeros(&[4, 4]),
        );
        let labels = [0usize, 0, 1, 1];
        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);

        let logits0 = net.forward(&x, true);
        let (loss0, _) = cross_entropy(&logits0, &labels);
        for _ in 0..50 {
            let logits = net.forward(&x, true);
            let (_, grad) = cross_entropy(&logits, &labels);
            net.backward(&grad);
            opt.step(&mut |f| net.visit_params(f));
            net.post_step();
        }
        let logits1 = net.forward(&x, false);
        let (loss1, _) = cross_entropy(&logits1, &labels);
        assert!(
            loss1 < loss0 * 0.5,
            "training failed to reduce loss: {loss0} -> {loss1}"
        );
    }

    #[test]
    fn num_params_counts_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let body = CSequential::new().push(CDense::new(3, 2, &mut rng));
        let mut net = Network::new(body, Box::new(ReHead::new()));
        // w_re + w_im (3*2 each) + b_re + b_im (2 each).
        assert_eq!(net.num_params(), 6 + 6 + 2 + 2);
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut rng = StdRng::seed_from_u64(3);
        let body = CSequential::new().push(CDense::new(2, 2, &mut rng));
        let mut net = Network::new(body, Box::new(ReHead::new()));
        let x = CTensor::from_re(Tensor::full(&[1, 2], 1.0));
        let y = net.forward(&x, true);
        let (_, g) = cross_entropy(&y, &[0]);
        net.backward(&g);
        let mut total = 0.0f32;
        net.visit_params(&mut |p| total += p.grad.max_abs());
        assert!(total > 0.0);
        net.zero_grads();
        let mut total = 0.0f32;
        net.visit_params(&mut |p| total += p.grad.max_abs());
        assert_eq!(total, 0.0);
    }
}
