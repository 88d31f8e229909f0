impl Engine {
    pub fn log_likelihood_into(&mut self, batch: &PointBatch, out: &mut [f64]) {
        let staged: Vec<f64> = batch.iter().map(|p| p[0]).collect();
        out.copy_from_slice(&staged);
    }
}
