impl Engine {
    pub fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(batch.as_flat());
        out.copy_from_slice(&self.scratch);
    }

    fn helper_outside_hot_path(&self) -> Vec<f64> {
        // Allocation outside a registered hot-path fn is fine.
        Vec::new()
    }
}
