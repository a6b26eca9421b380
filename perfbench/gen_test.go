package main

import (
	"reflect"
	"testing"

	"repro/internal/sampling"
)

func TestGeneratorIsSeeded(t *testing.T) {
	draw := func(seed uint64) []any {
		g := NewGen(seed, Salt, false)
		return []any{g.Preload(100, true), g.Mixed(500, 0.25), g.Duplicates(g.Preload(10, false), 20)}
	}
	if !reflect.DeepEqual(draw(5), draw(5)) {
		t.Error("the same seed drew different inputs")
	}
	if reflect.DeepEqual(draw(5), draw(6)) {
		t.Error("different seeds drew the same inputs")
	}
}

func TestMixedInputProperties(t *testing.T) {
	g := NewGen(1, Salt, false)
	pre := g.Preload(1000, true)
	if len(pre) != 2000 {
		t.Fatalf("preload of 1000 keys on both instances gave %d updates", len(pre))
	}
	pool := map[uint64]int{}
	for i, k := range g.Pool() {
		pool[k] = i
	}
	ups := g.Mixed(20000, 0.25)
	newKeys, hot, inst1 := 0, 0, 0
	for _, u := range ups {
		i, seen := pool[u.Key]
		switch {
		case !seen:
			newKeys++
		case i < 10:
			hot++
		}
		if u.Instance == 1 {
			inst1++
		}
		if u.Weight < 1 {
			t.Fatalf("Pareto weight %v below its scale 1", u.Weight)
		}
	}
	if share := float64(newKeys) / float64(len(ups)); share < 0.23 || share > 0.27 {
		t.Errorf("new-key share %.3f, want about 0.25", share)
	}
	// Zipf: the 10 hottest of 1000 keys take far more than 1% of repeats.
	if share := float64(hot) / float64(len(ups)-newKeys); share < 0.2 {
		t.Errorf("10 hottest keys took %.3f of repeats", share)
	}
	if share := float64(inst1) / float64(len(ups)); share < 0.45 || share > 0.55 {
		t.Errorf("instance-1 share %.3f, want about 0.5", share)
	}
}

func TestLadderWritesAreOnTheLadder(t *testing.T) {
	g := NewGen(2, Salt, true)
	on := map[float64]bool{}
	for _, v := range Ladder {
		on[v] = true
	}
	for _, u := range g.Preload(500, false) {
		if !on[u.Weight] {
			t.Fatalf("preload weight %v off the ladder", u.Weight)
		}
	}
	idx := map[uint64]int{}
	for i, k := range g.Pool() {
		idx[k] = i
	}
	for i := 0; i < 100; i++ {
		u := g.DirtyOnly()
		if u.Instance != 1 || idx[u.Key]%2 != 1 || !on[u.Weight] {
			t.Fatalf("dirty-only write %+v is not a ladder weight on an odd key's missing instance", u)
		}
	}
	h := sampling.NewSeedHash(Salt)
	for i := 0; i < 5; i++ {
		if k := g.SmallRankKey(0.001); h.U(k) >= 0.001 {
			t.Fatalf("small-rank key has seed %v", h.U(k))
		}
	}
}
