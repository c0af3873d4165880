//! A sequential container of complex layers.

use super::CLayer;
use crate::ctensor::CTensor;
use crate::param::ParamVisitor;

/// Runs layers in order on the forward pass and in reverse on the backward
/// pass.
#[derive(Default)]
pub struct CSequential {
    layers: Vec<Box<dyn CLayer>>,
}

impl CSequential {
    /// An empty container.
    pub fn new() -> Self {
        CSequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl CLayer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn CLayer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layers, used by hardware deployment.
    pub fn layers(&self) -> &[Box<dyn CLayer>] {
        &self.layers
    }
}

impl std::fmt::Debug for CSequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSequential({} layers)", self.layers.len())
    }
}

impl CLayer for CSequential {
    fn forward(&mut self, x: &CTensor, train: bool) -> CTensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, dy: &CTensor) -> CTensor {
        let mut cur = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Layers `1..` run [`backward`](CLayer::backward), and layer 0, whose
    /// input gradient would be the container's, runs `backward_params`.
    fn backward_params(&mut self, dy: &CTensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let dz = rest
            .iter_mut()
            .rev()
            .fold(dy.clone(), |d, layer| layer.backward(&d));
        first.backward_params(&dz);
    }

    fn visit_params(&mut self, visitor: &mut ParamVisitor) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{CDense, CRelu};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_backward_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = CSequential::new()
            .push(CDense::new(4, 3, &mut rng))
            .push(CRelu::new())
            .push(CDense::new(3, 2, &mut rng));
        assert_eq!(net.len(), 3);

        let x = CTensor::new(
            Tensor::random_uniform(&[2, 4], 1.0, &mut rng),
            Tensor::random_uniform(&[2, 4], 1.0, &mut rng),
        );
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 2]);
        let dx = net.backward(&CTensor::new(
            Tensor::full(&[2, 2], 1.0),
            Tensor::zeros(&[2, 2]),
        ));
        assert_eq!(dx.shape(), &[2, 4]);
    }

    /// `backward_params` skips only the first layer's input gradient: every
    /// parameter gradient is bitwise what `backward` leaves, for an input
    /// with an all-zero imaginary half and for a complex one.
    #[test]
    fn backward_params_leaves_the_gradients_of_backward() {
        use crate::layers::skip_oracle::grad_bits;
        use crate::layers::{CAvgPool2d, CConv2d, CFlatten};

        for complex in [false, true] {
            let make = || {
                let mut rng = StdRng::seed_from_u64(3);
                CSequential::new()
                    .push(CConv2d::new(2, 3, 3, 1, 1, &mut rng))
                    .push(CRelu::new())
                    .push(CAvgPool2d::new(2))
                    .push(CFlatten::new())
                    .push(CDense::new(12, 5, &mut rng))
                    .push(CRelu::new())
                    .push(CDense::new(5, 2, &mut rng))
            };
            let mut rng = StdRng::seed_from_u64(4);
            let mut x = CTensor::from_re(Tensor::random_uniform(&[3, 2, 4, 4], 1.0, &mut rng));
            if complex {
                x.im = Tensor::random_uniform(&[3, 2, 4, 4], 1.0, &mut rng);
            }
            let dy = CTensor::new(
                Tensor::random_uniform(&[3, 2], 1.0, &mut rng),
                Tensor::random_uniform(&[3, 2], 1.0, &mut rng),
            );
            let (mut full, mut params) = (make(), make());
            full.forward(&x, true);
            full.backward(&dy);
            params.forward(&x, true);
            params.backward_params(&dy);
            assert_eq!(
                grad_bits(&mut params),
                grad_bits(&mut full),
                "complex input: {complex}"
            );
        }
    }

    #[test]
    fn visits_all_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = CSequential::new()
            .push(CDense::new(4, 3, &mut rng))
            .push(CDense::new(3, 2, &mut rng));
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 8); // two layers x (w_re, b_re, w_im, b_im)
    }
}
