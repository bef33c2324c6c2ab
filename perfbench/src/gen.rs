//! Seeded workload inputs. Everything a run sends is a pure function of the
//! workload seed and the (fixed) dataset; the program under test only ever
//! sees the generated requests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rmpi_kg::{EntityId, Triple};
use std::collections::HashSet;

/// Independent random streams drawn from one workload seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Which `(head, relation)` queries a RANK run cycles through.
    RankPool = 1,
    /// Corrupted tails that fill the SCORE hot set.
    HotSet = 2,
    /// Which hot-set triples each SCORE request carries.
    ScoreRequests = 3,
    /// Which requests the traced run replays layer by layer.
    Replay = 4,
}

/// A generator for one stream of one seed (SplitMix-style mixing keeps the
/// streams of neighbouring seeds unrelated).
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `size` distinct `(head, relation)` pairs drawn from `targets`, none equal
/// to `exclude`. The draw is stratified by `cost` (a query's expected work,
/// e.g. its head's degree): the pairs are sorted by cost and cut into `size`
/// equal strata, and one pair is drawn from each. The strata are visited in
/// one fixed order, the same for every seed, so every run meets the same
/// sequence of easy and hard queries — and so the same queueing behind the
/// hard ones — while the queries themselves differ by seed. RANK request `i`
/// asks for `pool[i % pool.len()]`: a query recurs only after every other
/// pool entry has run.
pub fn rank_pool(
    targets: &[Triple],
    size: usize,
    seed: u64,
    exclude: (u32, u32),
    cost: impl Fn(u32) -> usize,
) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = targets.iter().map(|t| (t.head.0, t.relation.0)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.retain(|&p| p != exclude);
    pairs.sort_by_key(|&(h, r)| (cost(h), h, r));
    let size = size.min(pairs.len());
    let mut strata: Vec<usize> = (0..size).collect();
    strata.shuffle(&mut StdRng::seed_from_u64(STRATUM_ORDER));
    let mut r = rng(seed, Stream::RankPool);
    strata
        .into_iter()
        .map(|k| {
            let (lo, hi) = (k * pairs.len() / size, (k + 1) * pairs.len() / size);
            pairs[r.gen_range(lo..hi)]
        })
        .collect()
}

/// Seeds the one stratum order every RANK pool follows.
const STRATUM_ORDER: u64 = 0x005e_ed0f_5757_a7a0;

/// The SCORE hot set: every distinct positive in `targets` plus seeded
/// corrupted-tail triples (tails drawn from `entities`), `size` distinct
/// triples in all, in a seeded order.
pub fn hot_set(targets: &[Triple], entities: &[EntityId], size: usize, seed: u64) -> Vec<Triple> {
    let mut r = rng(seed, Stream::HotSet);
    let mut seen: HashSet<Triple> = HashSet::new();
    let mut out: Vec<Triple> = Vec::with_capacity(size);
    for &t in targets {
        if out.len() < size && seen.insert(t) {
            out.push(t);
        }
    }
    while out.len() < size {
        let base = targets[r.gen_range(0..targets.len())];
        let tail = entities[r.gen_range(0..entities.len())];
        let t = Triple { tail, ..base };
        if seen.insert(t) {
            out.push(t);
        }
    }
    out.shuffle(&mut r);
    out
}

/// SCORE request `index`: `per_request` distinct hot-set triples, drawn from
/// a generator of its own so any prefix of the request stream is the same
/// whatever length a run ends up sending.
pub fn score_request(hot: &[Triple], per_request: usize, seed: u64, index: usize) -> Vec<Triple> {
    assert!(per_request <= hot.len(), "request wider than the hot set");
    let mut r = rng(
        seed.wrapping_add((index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)),
        Stream::ScoreRequests,
    );
    let mut picked: Vec<usize> = Vec::with_capacity(per_request);
    while picked.len() < per_request {
        let i = r.gen_range(0..hot.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.into_iter().map(|i| hot[i]).collect()
}

/// `count` distinct indices below `n` (all of them when `count >= n`), in
/// increasing order: the requests the traced run replays.
pub fn replay_sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng(seed, Stream::Replay));
    idx.truncate(count);
    idx.sort_unstable();
    idx
}

/// `SCORE h r t [h r t ...]`, exactly as `rmpi-client` frames it.
pub fn score_line(triples: &[Triple]) -> String {
    let mut line = String::from("SCORE");
    for t in triples {
        line.push_str(&format!(" {} {} {}", t.head.0, t.relation.0, t.tail.0));
    }
    line
}

/// `RANK h r k`.
pub fn rank_line((head, relation): (u32, u32), k: usize) -> String {
    format!("RANK {head} {relation} {k}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> Vec<Triple> {
        (0..200u32).map(|i| Triple::new(i % 37, i % 5, (i * 7) % 53)).collect()
    }

    fn cost(h: u32) -> usize {
        (h as usize * 7) % 11
    }

    fn entities() -> Vec<EntityId> {
        (0..60u32).map(EntityId).collect()
    }

    #[test]
    fn same_seed_same_requests() {
        let (t, e) = (targets(), entities());
        assert_eq!(rank_pool(&t, 16, 7, (0, 0), cost), rank_pool(&t, 16, 7, (0, 0), cost));
        let hot = hot_set(&t, &e, 300, 7);
        assert_eq!(hot, hot_set(&t, &e, 300, 7));
        assert_eq!(score_request(&hot, 8, 7, 5), score_request(&hot, 8, 7, 5));
        assert_eq!(replay_sample(100, 6, 7), replay_sample(100, 6, 7));
    }

    #[test]
    fn different_seed_different_requests() {
        let (t, e) = (targets(), entities());
        assert_ne!(rank_pool(&t, 16, 7, (0, 0), cost), rank_pool(&t, 16, 8, (0, 0), cost));
        let hot = hot_set(&t, &e, 300, 7);
        assert_ne!(hot, hot_set(&t, &e, 300, 8));
        assert_ne!(score_request(&hot, 8, 7, 5), score_request(&hot, 8, 8, 5));
        assert_ne!(score_request(&hot, 8, 7, 5), score_request(&hot, 8, 7, 6));
        assert_ne!(replay_sample(100, 6, 7), replay_sample(100, 6, 8));
    }

    #[test]
    fn inputs_have_the_promised_shape() {
        let (t, e) = (targets(), entities());
        let pool = rank_pool(&t, 16, 3, (1, 1), cost);
        assert_eq!(pool.len(), 16);
        let distinct: HashSet<_> = pool.iter().collect();
        assert_eq!(distinct.len(), 16, "pool entries are distinct");
        assert!(!distinct.contains(&(1, 1)), "the excluded query is never drawn");
        // one query per cost stratum: the sorted costs step through the range
        let mut costs: Vec<usize> = pool.iter().map(|&(h, _)| cost(h)).collect();
        costs.sort_unstable();
        let all: Vec<usize> = {
            let mut p: Vec<(u32, u32)> = t.iter().map(|x| (x.head.0, x.relation.0)).collect();
            p.sort_unstable();
            p.dedup();
            let mut c: Vec<usize> =
                p.iter().filter(|&&q| q != (1, 1)).map(|&(h, _)| cost(h)).collect();
            c.sort_unstable();
            c
        };
        for (k, c) in costs.iter().enumerate() {
            let (lo, hi) = (k * all.len() / 16, (k + 1) * all.len() / 16);
            assert!(all[lo] <= *c && *c <= all[hi - 1], "stratum {k}");
        }
        // every seed walks the strata in the same order
        let mut sorted: Vec<(u32, u32)> = t.iter().map(|x| (x.head.0, x.relation.0)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.retain(|&q| q != (1, 1));
        sorted.sort_by_key(|&(h, r)| (cost(h), h, r));
        let n = sorted.len();
        let stratum = |q: (u32, u32)| {
            let idx = sorted.iter().position(|&p| p == q).unwrap();
            (0..16).find(|&k| k * n / 16 <= idx && idx < (k + 1) * n / 16).unwrap()
        };
        let other = rank_pool(&t, 16, 4, (1, 1), cost);
        assert_ne!(pool, other, "the queries differ by seed");
        let a: Vec<usize> = pool.iter().map(|&q| stratum(q)).collect();
        let b: Vec<usize> = other.iter().map(|&q| stratum(q)).collect();
        assert_eq!(a, b, "same cost sequence for every seed");

        let hot = hot_set(&t, &e, 300, 3);
        let distinct: HashSet<_> = hot.iter().collect();
        assert_eq!(distinct.len(), 300, "hot set is distinct");
        for p in &t {
            assert!(distinct.contains(p), "every positive is in the hot set");
        }
        for req in (0..40).map(|i| score_request(&hot, 8, 3, i)) {
            let d: HashSet<_> = req.iter().collect();
            assert_eq!(d.len(), 8);
            assert!(req.iter().all(|x| distinct.contains(x)));
        }
        assert_eq!(
            score_line(&hot[..1]),
            format!("SCORE {} {} {}", hot[0].head.0, hot[0].relation.0, hot[0].tail.0)
        );
        assert_eq!(rank_line((4, 2), 10), "RANK 4 2 10");
    }
}
