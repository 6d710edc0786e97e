//! Supporting collectives: barrier, broadcast, scatterv, reduce,
//! allreduce, allgather and alltoall.
//!
//! These follow the classic MPICH algorithm choices (dissemination barrier,
//! binomial broadcast/reduce); they are uniform-volume operations the paper
//! does not redesign, but the PETSc layer's setup phases need them.

use crate::coll::{coll_tag, CollOp};
use crate::comm::{bytes_to_f64s, f64s_to_bytes, Comm};

impl Comm<'_> {
    /// Dissemination barrier: ceil(log2 N) rounds of empty messages.
    pub fn barrier(&mut self) {
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return;
        }
        let mut delta = 1usize;
        let mut phase = 0u32;
        while delta < size {
            let dst = (rank + delta) % size;
            let src = (rank + size - delta) % size;
            let tag = coll_tag(CollOp::Barrier, phase);
            self.rank_mut().send_bytes(dst, tag, Vec::new());
            let _ = self.rank_mut().recv_bytes(Some(src), tag);
            delta <<= 1;
            phase += 1;
        }
    }

    /// Binomial-tree broadcast of a byte buffer from `root`.
    pub fn bcast(&mut self, buf: &mut Vec<u8>, root: usize) {
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return;
        }
        let relrank = (rank + size - root) % size;
        let tag = coll_tag(CollOp::Bcast, 0);

        let mut mask = 1usize;
        while mask < size {
            if relrank & mask != 0 {
                let src = (rank + size - mask) % size;
                let (data, _) = self.rank_mut().recv_bytes(Some(src), tag);
                *buf = data;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relrank + mask < size {
                let dst = (rank + mask) % size;
                self.rank_mut().send_bytes(dst, tag, buf.clone());
            }
            mask >>= 1;
        }
    }

    /// Scatter per-rank byte buffers from `root`; `parts` is only read at
    /// the root and must have one entry per rank. Returns this rank's part.
    pub fn scatterv(&mut self, parts: Option<&[Vec<u8>]>, root: usize) -> Vec<u8> {
        let size = self.size();
        let rank = self.rank();
        let tag = coll_tag(CollOp::Scatter, 0);
        if rank == root {
            let parts = parts.expect("root must supply parts");
            assert_eq!(parts.len(), size, "scatterv needs one part per rank");
            for (dst, part) in parts.iter().enumerate() {
                if dst != root {
                    self.rank_mut().send_bytes(dst, tag, part.clone());
                }
            }
            parts[root].clone()
        } else {
            let (data, _) = self.rank_mut().recv_bytes(Some(root), tag);
            data
        }
    }

    /// Binomial-tree sum-reduction of an `f64` vector to `root`. Returns
    /// the reduced vector at the root, `None` elsewhere.
    pub fn reduce_sum_f64(&mut self, data: &[f64], root: usize) -> Option<Vec<f64>> {
        let size = self.size();
        let rank = self.rank();
        let relrank = (rank + size - root) % size;
        let tag = coll_tag(CollOp::Reduce, 0);
        let mut acc = data.to_vec();

        let mut mask = 1usize;
        while mask < size {
            if relrank & mask != 0 {
                let dst = (rank + size - mask) % size;
                self.send_f64s(&acc, dst, tag);
                return None;
            }
            if relrank + mask < size {
                let src = (rank + mask) % size;
                let (other, _) = self.recv_f64s(Some(src), tag);
                assert_eq!(other.len(), acc.len(), "reduce length mismatch");
                for (a, b) in acc.iter_mut().zip(&other) {
                    *a += b;
                }
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce (sum) of an `f64` vector: reduce to rank 0 then broadcast.
    pub fn allreduce_sum_f64(&mut self, data: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_sum_f64(data, 0);
        let mut buf = match reduced {
            Some(v) => f64s_to_bytes(&v),
            None => Vec::new(),
        };
        self.bcast(&mut buf, 0);
        bytes_to_f64s(&buf)
    }

    /// Scalar allreduce (sum) convenience.
    pub fn allreduce_scalar(&mut self, x: f64) -> f64 {
        self.allreduce_sum_f64(&[x])[0]
    }

    /// Uniform allgather of fixed-size per-rank blocks: delegates to
    /// allgatherv with equal counts.
    pub fn allgather(&mut self, send: &[u8], recvbuf: &mut [u8]) {
        let counts = vec![send.len(); self.size()];
        self.allgatherv(send, &counts, recvbuf);
    }

    /// Pairwise-exchange alltoall of equal-size blocks. `send` holds `size`
    /// blocks of `block` bytes; so will the returned buffer.
    pub fn alltoall(&mut self, send: &[u8], block: usize) -> Vec<u8> {
        let size = self.size();
        let rank = self.rank();
        assert_eq!(send.len(), block * size, "alltoall send buffer size");
        let mut recv = vec![0u8; block * size];
        recv[rank * block..(rank + 1) * block]
            .copy_from_slice(&send[rank * block..(rank + 1) * block]);
        for i in 1..size {
            let dst = (rank + i) % size;
            let src = (rank + size - i) % size;
            let tag = coll_tag(CollOp::Alltoall, i as u32);
            self.rank_mut()
                .send_bytes(dst, tag, send[dst * block..(dst + 1) * block].to_vec());
            let (data, _) = self.rank_mut().recv_bytes(Some(src), tag);
            recv[src * block..(src + 1) * block].copy_from_slice(&data);
        }
        recv
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Comm;
    use crate::config::MpiConfig;
    use ncd_simnet::{Cluster, ClusterConfig};

    fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
        Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
            let mut comm = Comm::new(rank, MpiConfig::optimized());
            f(&mut comm)
        })
    }

    #[test]
    fn barrier_completes_for_various_sizes() {
        for n in [1, 2, 3, 5, 8, 13] {
            let out = with_n(n, |c| {
                c.barrier();
                true
            });
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn barrier_couples_clocks() {
        let out = with_n(4, |c| {
            if c.rank() == 2 {
                c.rank_mut().compute_flops(1_000_000); // straggler
            }
            c.barrier();
            c.rank_ref().now()
        });
        let slow = out[2];
        for t in &out {
            // Everyone leaves the barrier no earlier than the straggler's
            // pre-barrier clock (t >= slow - barrier internal costs).
            assert!(t.as_ns() + 100_000 > slow.as_ns());
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for n in [1, 2, 5, 8] {
            for root in [0, n - 1, n / 2] {
                let out = with_n(n, move |c| {
                    let mut buf = if c.rank() == root {
                        vec![7u8, 8, 9]
                    } else {
                        Vec::new()
                    };
                    c.bcast(&mut buf, root);
                    buf
                });
                assert!(
                    out.iter().all(|b| b == &vec![7u8, 8, 9]),
                    "n={n} root={root}"
                );
            }
        }
    }

    #[test]
    fn scatterv_distributes_ragged_buffers() {
        let out = with_n(4, |c| {
            let parts: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 * 2; i + 1]).collect();
            let parts_opt = if c.rank() == 1 { Some(parts) } else { None };
            c.scatterv(parts_opt.as_deref(), 1)
        });
        for (i, got) in out.iter().enumerate() {
            assert_eq!(got, &vec![i as u8 * 2; i + 1]);
        }
    }

    #[test]
    fn reduce_sums_vectors() {
        for n in [1, 2, 3, 7, 8] {
            let out = with_n(n, move |c| {
                let data = vec![c.rank() as f64, 1.0];
                c.reduce_sum_f64(&data, 0)
            });
            let expected_sum: f64 = (0..n).map(|i| i as f64).sum();
            let r = out[0].as_ref().unwrap();
            assert_eq!(r[0], expected_sum, "n={n}");
            assert_eq!(r[1], n as f64);
            assert!(out.iter().skip(1).all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_gives_same_answer_everywhere() {
        let out = with_n(6, |c| c.allreduce_scalar((c.rank() + 1) as f64));
        assert!(out.iter().all(|&v| v == 21.0));
    }

    #[test]
    fn allgather_uniform_blocks() {
        let out = with_n(4, |c| {
            let send = vec![c.rank() as u8; 3];
            let mut recv = vec![0u8; 12];
            c.allgather(&send, &mut recv);
            recv
        });
        let expected: Vec<u8> = vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];
        assert!(out.iter().all(|r| r == &expected));
    }

    #[test]
    fn alltoall_transposes_blocks() {
        let n = 5;
        let out = with_n(n, move |c| {
            // Block for dst j = [rank, j].
            let mut send = Vec::new();
            for j in 0..n {
                send.extend_from_slice(&[c.rank() as u8, j as u8]);
            }
            c.alltoall(&send, 2)
        });
        for (i, recv) in out.iter().enumerate() {
            for j in 0..n {
                assert_eq!(
                    &recv[j * 2..j * 2 + 2],
                    &[j as u8, i as u8],
                    "rank {i} block {j}"
                );
            }
        }
    }
}
