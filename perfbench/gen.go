package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/engine"
	"repro/internal/sampling"
)

// The generator is the only source of what the daemons receive: every
// key, weight and query derives from the workload seed, so one seed gives
// one input stream on every commit. Its input properties are the ones the
// system's behaviour depends on:
//
//   - key popularity: repeats draw preloaded keys by a Zipf law (s=1.1),
//     so a few keys take most repeats (steady-state folds into items the
//     shard maps already hold);
//   - new-key share: a stated fraction of updates insert a key never seen
//     before (cold inserts that grow the registry and the merge plan);
//   - weights: heavy-tailed continuous (Pareto, α=1.2) for ingest, or a
//     4-step ladder in (0, 1] that the paper's order: family can serve;
//   - 2 instances, drawn uniformly.
//
// HeldOutSeed is never used while tuning the benchmark or a change; a
// gain claimed on the tuned seeds must also hold on it.
const HeldOutSeed = 424242

// Ladder is the query-mix weight ladder; it doubles as the order:
// estimator's discrete scheme (π(x) = x, valid since every value is in
// (0, 1]).
var Ladder = []float64{0.25, 0.5, 0.75, 1}

// Gen draws one workload's inputs.
type Gen struct {
	r      *rand.Rand
	hash   sampling.SeedHash
	base   uint64 // key namespace of this seed
	next   uint64 // keys minted so far
	pool   []uint64
	zipf   *rand.Zipf
	ladder bool
}

// NewGen seeds a generator. salt is the daemons' -salt: the generator
// needs the seed hash only to mint keys whose sampling rank is known to be
// small (threshold-moving writes).
func NewGen(seed uint64, salt uint64, ladder bool) *Gen {
	r := rand.New(rand.NewPCG(seed, 0x6d6f6e657374)) // "monest"
	return &Gen{
		r:      r,
		hash:   sampling.NewSeedHash(salt),
		base:   splitmix(seed ^ 0x9e3779b97f4a7c15),
		ladder: ladder,
	}
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewKey mints a key no earlier call returned: splitmix64 is a bijection,
// so distinct counters give distinct keys.
func (g *Gen) NewKey() uint64 {
	g.next++
	return splitmix(g.base + g.next)
}

// SmallRankKey mints a new key whose seed is below u, so at weight 1 its
// rank enters the bottom-k of any instance holding many keys and moves
// that instance's conditional threshold.
func (g *Gen) SmallRankKey(u float64) uint64 {
	for {
		k := g.NewKey()
		if g.hash.U(k) < u {
			return k
		}
	}
}

// Weight draws one weight: a ladder step, or Pareto(α=1.2, x_m=1).
func (g *Gen) Weight() float64 {
	if g.ladder {
		return Ladder[g.r.IntN(len(Ladder))]
	}
	return math.Pow(1-g.r.Float64(), -1/1.2)
}

// Preload mints n keys and returns updates giving each key a weight on
// instance 0 and, when the key's index is even or both is set, on
// instance 1. The keys form the Zipf pool repeats draw from, hottest
// first.
func (g *Gen) Preload(n int, both bool) []engine.Update {
	ups := make([]engine.Update, 0, 2*n)
	for i := 0; i < n; i++ {
		k := g.NewKey()
		g.pool = append(g.pool, k)
		ups = append(ups, engine.Update{Instance: 0, Key: k, Weight: g.Weight()})
		if both || i%2 == 0 {
			ups = append(ups, engine.Update{Instance: 1, Key: k, Weight: g.Weight()})
		}
	}
	g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(len(g.pool)-1))
	return ups
}

// Rand derives an independent seeded stream (open-loop schedules).
func (g *Gen) Rand() *rand.Rand { return rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64())) }

// Pool is the preloaded keys, hottest first.
func (g *Gen) Pool() []uint64 { return g.pool }

// Mixed draws n updates of which newShare insert new keys and the rest
// repeat preloaded keys by Zipf popularity.
func (g *Gen) Mixed(n int, newShare float64) []engine.Update {
	ups := make([]engine.Update, n)
	for i := range ups {
		var k uint64
		if g.r.Float64() < newShare {
			k = g.NewKey()
		} else {
			k = g.pool[g.zipf.Uint64()]
		}
		ups[i] = engine.Update{Instance: g.r.IntN(2), Key: k, Weight: g.Weight()}
	}
	return ups
}

// DirtyOnly draws a write that changes snapshot-visible state without
// moving any threshold: a lowest-ladder weight on instance 1 for a
// preloaded key that has no instance-1 entry yet (odd index). Its rank
// u/0.25 is almost surely far above the bottom-k, so it only sets the
// key's instance bit and dirties one partition.
func (g *Gen) DirtyOnly() engine.Update {
	i := 2*g.r.IntN(len(g.pool)/2) + 1
	return engine.Update{Instance: 1, Key: g.pool[i], Weight: Ladder[0]}
}

// Duplicates draws n updates re-sending (instance, key, weight) triples
// of earlier updates: under max semantics they fold without changing
// any state.
func (g *Gen) Duplicates(from []engine.Update, n int) []engine.Update {
	ups := make([]engine.Update, n)
	for i := range ups {
		ups[i] = from[g.r.IntN(len(from))]
	}
	return ups
}
