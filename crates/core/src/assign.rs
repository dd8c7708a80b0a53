//! Hard gate-to-plane assignments.

use crate::weights::WeightMatrix;

/// A hard assignment of every gate to one of `K` ground planes.
///
/// Planes are numbered `0..K` internally; the paper's 1-based labels `l_i`
/// are available via [`Partition::paper_label`]. Planes are *ordered*: plane
/// `p` and plane `p+1` are physically adjacent strips on the chip, so the
/// coupler distance between gates is the absolute label difference.
///
/// # Example
///
/// ```
/// use sfq_partition::Partition;
///
/// let part = Partition::from_labels(vec![0, 0, 1, 2], 3)?;
/// assert_eq!(part.num_planes(), 3);
/// assert_eq!(part.plane_of(1), 0);
/// assert_eq!(part.paper_label(3), 3);
/// assert_eq!(part.gates_in_plane(0).count(), 2);
/// # Ok::<(), sfq_partition::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
    num_planes: usize,
}

impl Partition {
    /// Builds a partition from 0-based labels.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ProblemError::TooFewPlanes`] if `num_planes < 2` and
    /// [`crate::ProblemError::EdgeOutOfRange`]-style validation is *not*
    /// performed here; labels out of range are rejected with
    /// [`crate::ProblemError::InvalidQuantity`] carrying the gate index.
    pub fn from_labels(labels: Vec<u32>, num_planes: usize) -> Result<Self, crate::ProblemError> {
        if num_planes < 2 {
            return Err(crate::ProblemError::TooFewPlanes { k: num_planes });
        }
        for (i, &l) in labels.iter().enumerate() {
            if l as usize >= num_planes {
                return Err(crate::ProblemError::InvalidQuantity { gate: i });
            }
        }
        Ok(Partition { labels, num_planes })
    }

    /// Snaps a weight matrix to its per-row argmax (Algorithm 1 lines 27–30).
    pub fn from_weights(w: &WeightMatrix) -> Self {
        let labels = (0..w.num_gates())
            .map(|i| w.argmax_plane(i) as u32)
            .collect();
        Partition {
            labels,
            num_planes: w.num_planes(),
        }
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.labels.len()
    }

    /// Number of planes `K`.
    pub fn num_planes(&self) -> usize {
        self.num_planes
    }

    /// 0-based plane of gate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn plane_of(&self, i: usize) -> usize {
        self.labels[i] as usize
    }

    /// The paper's 1-based label `l_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn paper_label(&self, i: usize) -> usize {
        self.labels[i] as usize + 1
    }

    /// All 0-based labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Consumes the partition, keeping its labels.
    pub(crate) fn into_labels(self) -> Vec<u32> {
        self.labels
    }

    /// Moves gate `i` to plane `p` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `p` is out of range.
    pub fn move_gate(&mut self, i: usize, p: usize) {
        assert!(p < self.num_planes, "plane {p} out of range");
        self.labels[i] = p as u32;
    }

    /// Iterator over the gate indices assigned to plane `p` (0-based).
    pub fn gates_in_plane(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter(move |(_, &l)| l as usize == p)
            .map(|(i, _)| i)
    }

    /// Gate count per plane, indexed by plane.
    pub fn plane_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_planes];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Number of planes that actually received at least one gate.
    pub fn occupied_planes(&self) -> usize {
        self.plane_sizes().iter().filter(|&&s| s > 0).count()
    }

    /// Plane distance `d = |l_i − l_j|` between two gates.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, i: usize, j: usize) -> usize {
        (self.labels[i] as i64 - self.labels[j] as i64).unsigned_abs() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_labels_validates() {
        assert!(Partition::from_labels(vec![0, 1], 2).is_ok());
        assert!(Partition::from_labels(vec![0, 2], 2).is_err());
        assert!(Partition::from_labels(vec![0], 1).is_err());
    }

    #[test]
    fn from_weights_snaps_argmax() {
        let mut w = WeightMatrix::uniform(2, 3);
        w.set(0, 2, 0.9);
        w.set(1, 1, 0.8);
        let p = Partition::from_weights(&w);
        assert_eq!(p.plane_of(0), 2);
        assert_eq!(p.plane_of(1), 1);
        assert_eq!(p.num_planes(), 3);
    }

    #[test]
    fn paper_labels_are_one_based() {
        let p = Partition::from_labels(vec![0, 4], 5).unwrap();
        assert_eq!(p.paper_label(0), 1);
        assert_eq!(p.paper_label(1), 5);
    }

    #[test]
    fn distances() {
        let p = Partition::from_labels(vec![0, 3, 3], 4).unwrap();
        assert_eq!(p.distance(0, 1), 3);
        assert_eq!(p.distance(1, 2), 0);
        assert_eq!(p.distance(1, 0), 3);
    }

    #[test]
    fn plane_sizes_and_occupancy() {
        let p = Partition::from_labels(vec![0, 0, 2], 4).unwrap();
        assert_eq!(p.plane_sizes(), vec![2, 0, 1, 0]);
        assert_eq!(p.occupied_planes(), 2);
        assert_eq!(p.gates_in_plane(0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn move_gate_updates() {
        let mut p = Partition::from_labels(vec![0, 0], 2).unwrap();
        p.move_gate(1, 1);
        assert_eq!(p.plane_of(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_gate_rejects_bad_plane() {
        let mut p = Partition::from_labels(vec![0], 2).unwrap();
        p.move_gate(0, 5);
    }
}
