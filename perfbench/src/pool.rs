//! Seeded inputs: the query pool and the draw sequences over it.

use querygraph_wiki::KnowledgeBase;
use std::collections::HashSet;

/// SplitMix64: a tiny, well-mixed generator, so the inputs depend on
/// the seed alone and not on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given rate (the gap between Poisson
    /// arrivals).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// `size` distinct queries: each is one main-article title, or two
/// distinct main-article titles joined by a space, about half and half.
pub fn build_pool(kb: &KnowledgeBase, size: usize, seed: u64) -> Vec<String> {
    let titles: Vec<&str> = kb.main_articles().map(|a| kb.title(a)).collect();
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let first = titles[rng.below(titles.len())];
        let query = if rng.unit() < 0.5 {
            first.to_string()
        } else {
            let second = titles[rng.below(titles.len())];
            if second == first {
                continue;
            }
            format!("{first} {second}")
        };
        if seen.insert(query.clone()) {
            pool.push(query);
        }
    }
    pool
}

/// How a workload picks pool entries.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    Uniform,
    /// Zipf over pool positions with this exponent: position 0 is the
    /// most frequent query.
    Zipf(f64),
}

/// A seeded stream of pool indices.
pub struct Draws {
    rng: Rng,
    cdf: Option<Vec<f64>>,
    n: usize,
}

impl Draws {
    pub fn new(n: usize, mix: Mix, seed: u64) -> Draws {
        let cdf = match mix {
            Mix::Uniform => None,
            Mix::Zipf(s) => {
                let mut acc = 0.0;
                let mut cdf: Vec<f64> = (1..=n)
                    .map(|rank| {
                        acc += 1.0 / (rank as f64).powf(s);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                Some(cdf)
            }
        };
        Draws {
            rng: Rng::new(seed),
            cdf,
            n,
        }
    }

    pub fn next_index(&mut self) -> usize {
        match &self.cdf {
            None => self.rng.below(self.n),
            Some(cdf) => {
                let u = self.rng.unit();
                cdf.partition_point(|&c| c < u).min(self.n - 1)
            }
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.next_index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_a_function_of_the_seed() {
        let a = Draws::new(100, Mix::Zipf(1.0), 7).take(50);
        let b = Draws::new(100, Mix::Zipf(1.0), 7).take(50);
        let c = Draws::new(100, Mix::Zipf(1.0), 8).take(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&i| i < 100));
    }

    #[test]
    fn zipf_favours_the_head() {
        let draws = Draws::new(1000, Mix::Zipf(1.0), 3).take(5000);
        let head = draws.iter().filter(|&&i| i < 10).count();
        let tail = draws.iter().filter(|&&i| i >= 990).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
    }
}
