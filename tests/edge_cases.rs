//! Edge cases across the stack: degenerate sizes, empty messages,
//! self-communication, and exotic datatype layouts.

use nucomm::core::{AllgathervAlgorithm, AlltoallwSchedule, Comm, MpiConfig, WPeer};
use nucomm::datatype::{pack_all, unpack_all, Datatype, StructField};
use nucomm::simnet::{Cluster, ClusterConfig, Tag};

fn with_n<R: Send>(n: usize, f: impl Fn(&mut Comm) -> R + Send + Sync) -> Vec<R> {
    Cluster::new(ClusterConfig::uniform(n)).run(move |rank| {
        let mut comm = Comm::new(rank, MpiConfig::optimized());
        f(&mut comm)
    })
}

#[test]
fn single_rank_collectives_are_identities() {
    let out = with_n(1, |comm| {
        comm.barrier();
        let mut buf = vec![1u8, 2, 3];
        comm.bcast(&mut buf, 0);
        let mut recv = vec![0u8; 3];
        comm.allgather(&[7, 8, 9], &mut recv);
        let sum = comm.allreduce_scalar(5.5);
        let a2a = comm.alltoall(&[42u8], 1);
        (buf, recv, sum, a2a)
    });
    let (b, r, s, a) = &out[0];
    assert_eq!(b, &vec![1, 2, 3]);
    assert_eq!(r, &vec![7, 8, 9]);
    assert_eq!(*s, 5.5);
    assert_eq!(a, &vec![42]);
}

#[test]
fn allgatherv_of_all_zero_counts() {
    let out = with_n(5, |comm| {
        let counts = vec![0usize; 5];
        let mut recv = Vec::new();
        comm.allgatherv(&[], &counts, &mut recv);
        recv.len()
    });
    assert!(out.iter().all(|&n| n == 0));
}

#[test]
fn alltoallw_with_only_self_communication() {
    let out = with_n(3, |comm| {
        let dt = Datatype::double();
        let empty = Datatype::contiguous(0, &dt).unwrap();
        let me = comm.rank();
        let mut sends: Vec<WPeer> = (0..3).map(|_| WPeer::new(0, 0, empty.clone())).collect();
        let mut recvs = sends.clone();
        sends[me] = WPeer::new(0, 2, dt.clone());
        recvs[me] = WPeer::new(16, 2, dt.clone());
        let sendbuf: Vec<u8> = [me as f64 + 0.5, me as f64 + 0.25]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .chain([0u8; 16])
            .collect();
        let mut recvbuf = vec![0u8; 32];
        comm.alltoallw(&sendbuf, &sends, &mut recvbuf, &recvs);
        f64::from_le_bytes(recvbuf[16..24].try_into().unwrap())
    });
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as f64 + 0.5);
    }
}

#[test]
fn struct_datatype_with_gaps_round_trips() {
    // A struct with int + padding + doubles + trailing gap.
    let t = Datatype::structure(&[
        StructField {
            disp: 0,
            count: 1,
            dtype: Datatype::int32(),
        },
        StructField {
            disp: 8,
            count: 2,
            dtype: Datatype::double(),
        },
        StructField {
            disp: 32,
            count: 3,
            dtype: Datatype::byte(),
        },
    ])
    .unwrap();
    assert_eq!(t.size(), 4 + 16 + 3);
    let src: Vec<u8> = (0..40).map(|i| i as u8).collect();
    let packed = pack_all(&t, 1, &src).unwrap();
    assert_eq!(packed.len(), 23);
    let mut dst = vec![0u8; 40];
    unpack_all(&t, 1, &mut dst, &packed).unwrap();
    // Covered bytes restored, gaps untouched.
    assert_eq!(&dst[0..4], &src[0..4]);
    assert_eq!(&dst[8..24], &src[8..24]);
    assert_eq!(&dst[32..35], &src[32..35]);
    assert_eq!(&dst[4..8], &[0; 4]);
}

#[test]
fn resized_type_with_padding_replicates_correctly() {
    // 2 doubles resized to a 24-byte extent: replicas leave 8-byte gaps.
    let base = Datatype::contiguous(2, &Datatype::double()).unwrap();
    let padded = Datatype::resized(0, 24, &base).unwrap();
    let src: Vec<u8> = (0..72).map(|i| i as u8).collect();
    let packed = pack_all(&padded, 3, &src).unwrap();
    assert_eq!(packed.len(), 48);
    assert_eq!(&packed[0..16], &src[0..16]);
    assert_eq!(&packed[16..32], &src[24..40]);
    assert_eq!(&packed[32..48], &src[48..64]);
}

/// There is one communicator, so tag ranges alone keep traffic apart:
/// collectives tag `0x8000_0000 | op << 24 | phase`, mini-PETSc
/// `0x4000_00xx`, user code anything below both. Rank 0's typed user
/// messages to rank 1 — the same source as the collectives' own rank 0 →
/// rank 1 traffic — sit in rank 1's mailbox across a barrier, both
/// allgatherv algorithms and both alltoallw schedules, then arrive intact
/// and in order; every collective's result equals a run without them.
#[test]
fn user_messages_in_flight_across_collectives_keep_their_tag_range() {
    const USER: Tag = Tag(7);
    const MSGS: u8 = 5;
    let n = 4;
    let run = |user_traffic: bool| {
        with_n(n, move |comm| {
            let me = comm.rank();
            // Every other double of a 64-byte buffer.
            let col = Datatype::vector(4, 1, 2, &Datatype::double()).unwrap();
            let user_send = |comm: &mut Comm, k: u8| {
                if user_traffic && me == 0 {
                    let src: Vec<u8> = (0..64).map(|i| i ^ k).collect();
                    comm.send(&src, &col, 1, 1, USER);
                }
            };
            let mut results = Vec::new();
            user_send(comm, 0);
            comm.barrier();

            let counts: Vec<usize> = (0..n).map(|r| 8 * (3 * r + 1)).collect();
            let mine = vec![me as u8 + 1; counts[me]];
            let algos = [
                AllgathervAlgorithm::Ring,
                AllgathervAlgorithm::RecursiveDoubling,
            ];
            for (k, algo) in (1..).zip(algos) {
                user_send(comm, k);
                let mut recv = vec![0u8; counts.iter().sum()];
                comm.allgatherv_with(algo, &mine, &counts, &mut recv);
                results.push(recv);
            }

            // Zero, small and large pairwise volumes, so the binned
            // schedule fills all three bins.
            let doubles = |from: usize, to: usize| [0, 2, 300][(from + 2 * to) % 3];
            let dt = Datatype::double();
            let slots = |count: &dyn Fn(usize) -> usize| {
                let mut offset = 0;
                let peers: Vec<WPeer> = (0..n)
                    .map(|peer| {
                        let slot = WPeer::new(offset, count(peer), dt.clone());
                        offset += slot.bytes();
                        slot
                    })
                    .collect();
                (peers, offset)
            };
            let (sends, send_len) = slots(&|to| doubles(me, to));
            let (recvs, recv_len) = slots(&|from| doubles(from, me));
            let sendbuf: Vec<u8> = (0..send_len).map(|i| (i * 7 + me) as u8).collect();
            let schedules = [AlltoallwSchedule::RoundRobin, AlltoallwSchedule::Binned];
            for (k, schedule) in (1 + algos.len() as u8..).zip(schedules) {
                user_send(comm, k);
                let mut recvbuf = vec![0u8; recv_len];
                comm.alltoallw_with(schedule, &sendbuf, &sends, &mut recvbuf, &recvs);
                results.push(recvbuf);
            }

            let mut user = Vec::new();
            if user_traffic && me == 1 {
                for _ in 0..MSGS {
                    let mut dst = vec![0u8; 64];
                    comm.recv(&mut dst, &col, 1, Some(0), USER);
                    user.push(dst);
                }
            }
            (results, user)
        })
    };
    let quiet = run(false);
    let busy = run(true);
    for (rank, ((results, _), (alone, _))) in busy.iter().zip(&quiet).enumerate() {
        assert_eq!(results, alone, "rank {rank}'s collective results moved");
        assert_eq!(results.len(), 4);
        // Both allgatherv algorithms gathered every block.
        let gathered: Vec<u8> = (0..n)
            .flat_map(|r| vec![r as u8 + 1; 8 * (3 * r + 1)])
            .collect();
        assert_eq!(results[0], gathered);
        assert_eq!(results[1], gathered);
        assert_eq!(results[2], results[3], "the two schedules disagree");
    }
    // Rank 1 got rank 0's user messages, in send order, with exactly the
    // vector type's doubles filled in.
    let user = &busy[1].1;
    assert_eq!(user.len(), usize::from(MSGS));
    for (k, dst) in (0..MSGS).zip(user) {
        let expected: Vec<u8> = (0..64u8)
            .map(|i| if (i / 8) % 2 == 0 { i ^ k } else { 0 })
            .collect();
        assert_eq!(dst, &expected, "user message {k}");
    }
}

#[test]
fn message_to_every_peer_and_back() {
    // Stress (src, tag) matching: every rank sends a distinct tag to every
    // other rank, receives in reverse order.
    let n = 5;
    let out = with_n(n, move |comm| {
        let me = comm.rank();
        for dst in 0..n {
            if dst != me {
                comm.rank_mut()
                    .send_bytes(dst, Tag(1000 + me as u32), vec![me as u8; dst + 1]);
            }
        }
        let mut got = Vec::new();
        for src in (0..n).rev() {
            if src != me {
                let (data, _) = comm
                    .rank_mut()
                    .recv_bytes(Some(src), Tag(1000 + src as u32));
                got.push((src, data.len(), data[0]));
            }
        }
        got
    });
    for (me, got) in out.iter().enumerate() {
        for &(src, len, byte) in got {
            assert_eq!(len, me + 1);
            assert_eq!(byte, src as u8);
        }
    }
}
