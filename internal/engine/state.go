package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sampling"
)

// This file is the engine's durable-state boundary: DumpState serializes
// a consistent cut of the sketch store into a State, RestoreState rebuilds
// an empty engine from one bit-identically, and MergeState folds one into
// a live engine under the lossless sketch-merge semantics (shared seeds ⇒
// merge = per-key max-union). internal/store encodes States to disk as
// checkpoints and export artifacts; the engine itself stays free of any
// I/O or encoding concerns.

// seedProbeKeys are the fixed keys whose seeds fingerprint a Config.Hash.
// The salt is private to sampling.SeedHash, so state compatibility is
// checked by comparing the seeds these keys hash to: two engines agreeing
// on both (post-finalizer 64-bit mixes of distant inputs) share the salt
// for every practical purpose.
var seedProbeKeys = [2]uint64{0, 0x9e3779b97f4a7c15}

// StateEntry is one retained sketch entry: an item key with its folded
// (max) weight. The rank is not stored — it is a pure function of the
// seed (itself a function of the key) and the weight.
type StateEntry struct {
	Key    uint64
	Weight float64
}

// State is a self-contained, deterministic serialization of an engine's
// sketch contents: the key registry with its per-instance activity masks
// plus every instance's retained bottom-k entries. Equal engine contents
// produce byte-for-byte equal States (all slices are key-sorted), so
// encoded states double as comparison artifacts. A State is independent
// of the shard layout it was cut from: restoring into an engine with a
// different shard count preserves snapshot semantics (the global
// bottom-(k+1) per instance survives re-routing), though per-shard
// retained counts may then differ.
type State struct {
	// Instances and K echo the configuration; both must match the target
	// engine exactly on restore/merge (heap caps and τ semantics depend on
	// them).
	Instances int
	K         int
	// Shards records the source layout (informational).
	Shards int
	// Version and Ingests are the source engine's counters at the cut.
	// RestoreState preserves both; MergeState folds Ingests in and lets
	// the mutation version advance naturally.
	Version uint64
	Ingests uint64
	// SeedCheck fingerprints the seed hash (seeds of seedProbeKeys); a
	// mismatch on restore/merge means a different salt, i.e. sketches that
	// must not be combined.
	SeedCheck [2]float64
	// Keys holds every ingested item key, ascending.
	Keys []uint64
	// Masks holds the per-key instance-activity bitmasks, maskWords words
	// per key, parallel to Keys.
	Masks []uint64
	// Entries holds each instance's retained (key, weight) pairs,
	// key-ascending.
	Entries [][]StateEntry
}

// maskWordsFor mirrors Engine.maskWords for a given instance count.
func maskWordsFor(instances int) int { return (instances + 63) / 64 }

// seedCheck computes the hash fingerprint stored in State.SeedCheck.
func seedCheck(h sampling.SeedHash) [2]float64 {
	return [2]float64{h.U(seedProbeKeys[0]), h.U(seedProbeKeys[1])}
}

// DumpState serializes the engine's contents as one consistent cut: all
// shard locks are held while keys, masks, heap entries and counters are
// copied out, then the copy is sorted lock-free. The result shares no
// memory with the engine. The cut first takes the journal fence's write
// side (see Journal), so every batch whose journal append returned
// before DumpState was called is fully applied in the cut — never half.
func (e *Engine) DumpState() *State {
	mw := e.maskWords
	st := &State{
		Instances: e.cfg.Instances,
		K:         e.cfg.K,
		Shards:    e.cfg.Shards,
		SeedCheck: seedCheck(e.cfg.Hash),
		Entries:   make([][]StateEntry, e.cfg.Instances),
	}
	// The fence only has to drain journaled batches already in flight:
	// once every shard lock is held no batch can apply anything, so later
	// ones may journal (into the segment a checkpoint rotated to) while
	// the copy runs.
	e.fence.Lock()
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	e.fence.Unlock()
	total := 0
	for _, sh := range e.shards {
		total += len(sh.items)
	}
	st.Keys = make([]uint64, 0, total)
	st.Masks = make([]uint64, 0, total*mw)
	st.Ingests = e.ingests.Load()
	for _, sh := range e.shards {
		st.Version += sh.muts.Load()
		for key, it := range sh.items {
			st.Keys = append(st.Keys, key)
			st.Masks = append(st.Masks, it.mask...)
		}
	}
	for i := range st.Entries {
		n := 0
		for _, sh := range e.shards {
			n += len(sh.heaps[i].es)
		}
		ents := make([]StateEntry, 0, n)
		for _, sh := range e.shards {
			for _, en := range sh.heaps[i].es {
				ents = append(ents, StateEntry{Key: en.key, Weight: en.weight})
			}
		}
		st.Entries[i] = ents
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}

	// Sort keys ascending, permuting the masks alongside; map iteration
	// order must not leak into the serialized form.
	perm := make([]int, len(st.Keys))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return cmp.Compare(st.Keys[a], st.Keys[b]) })
	keys := make([]uint64, len(st.Keys))
	masks := make([]uint64, len(st.Masks))
	for to, from := range perm {
		keys[to] = st.Keys[from]
		copy(masks[to*mw:(to+1)*mw], st.Masks[from*mw:(from+1)*mw])
	}
	st.Keys, st.Masks = keys, masks
	for i := range st.Entries {
		slices.SortFunc(st.Entries[i], func(a, b StateEntry) int { return cmp.Compare(a.Key, b.Key) })
	}
	return st
}

// validateState checks that st can be combined with the engine at all.
func (e *Engine) validateState(st *State) error {
	if st.Instances != e.cfg.Instances {
		return fmt.Errorf("engine: state has %d instances, engine %d", st.Instances, e.cfg.Instances)
	}
	if st.K != e.cfg.K {
		return fmt.Errorf("engine: state has k=%d, engine k=%d", st.K, e.cfg.K)
	}
	if sc := seedCheck(e.cfg.Hash); sc != st.SeedCheck {
		return fmt.Errorf("engine: state seed fingerprint %v does not match engine %v (different salt)", st.SeedCheck, sc)
	}
	mw := maskWordsFor(st.Instances)
	if len(st.Masks) != len(st.Keys)*mw {
		return fmt.Errorf("engine: state has %d mask words for %d keys (want %d)", len(st.Masks), len(st.Keys), len(st.Keys)*mw)
	}
	if len(st.Entries) != st.Instances {
		return fmt.Errorf("engine: state has %d entry lists for %d instances", len(st.Entries), st.Instances)
	}
	for i, ents := range st.Entries {
		for _, en := range ents {
			if en.Weight <= 0 || math.IsNaN(en.Weight) || math.IsInf(en.Weight, 0) {
				return fmt.Errorf("engine: state instance %d key %d weight %g must be finite and positive", i, en.Key, en.Weight)
			}
		}
	}
	return nil
}

// RestoreState rebuilds an empty engine from a dumped state. The engine
// must be freshly constructed (no prior ingests) and agree with the state
// on Instances, K and the seed hash; the shard count may differ. After a
// restore, Snapshot() is bit-identical to the source engine's at the cut,
// and the Ingests and Version counters continue from the dumped values —
// a clean-shutdown checkpoint round-trips byte-for-byte through
// DumpState/RestoreState.
func (e *Engine) RestoreState(st *State) error {
	if s := e.Stats(); s.Keys != 0 || s.Ingests != 0 {
		return fmt.Errorf("engine: restore into non-empty engine (%d keys, %d ingests)", s.Keys, s.Ingests)
	}
	if err := e.validateState(st); err != nil {
		return err
	}
	e.applyState(st, false)
	e.ingests.Store(st.Ingests)
	// Park the whole dumped version on shard 0 so Version() continues from
	// the cut; applyState deliberately skipped per-mutation bumps. That
	// parking bypasses per-shard mutation accounting, so any snapshot
	// partitions cut before the restore (shards 1..N-1 still read muts=0)
	// would wrongly pass the cleanliness check — drop them all.
	e.shards[0].muts.Store(st.Version)
	e.resetSnapshotState()
	e.notifyMutation()
	return nil
}

// MergeState folds a dumped state into a live engine: activity masks OR
// in (an instance that ever saw a key positive stays counted exactly
// once) and retained entries fold under max-weight semantics — the
// lossless coordinated-sketch merge, usable for import of portable sketch
// artifacts from other processes sharing the salt. The state's Ingests
// add to the engine's traffic counter and the mutation version advances
// per actual state change, so cached snapshots invalidate as usual.
func (e *Engine) MergeState(st *State) error {
	if err := e.validateState(st); err != nil {
		return err
	}
	e.applyState(st, true)
	e.ingests.Add(st.Ingests)
	// A merge may be a pure no-op (every mask bit and entry dominated),
	// but signaling spuriously is harmless: consumers re-read Version and
	// see nothing moved.
	e.notifyMutation()
	return nil
}

// applyState is the shared restore/merge walk. With countMuts, every
// snapshot-visible change bumps the owning shard's mutation counter under
// its lock (merge); without, counters are left for the caller (restore).
func (e *Engine) applyState(st *State, countMuts bool) {
	mw := maskWordsFor(st.Instances)
	for j, key := range st.Keys {
		sh := e.shards[e.shardOf(key)]
		sh.mu.Lock()
		it, ok := sh.items[key]
		if !ok {
			it = &item{seed: e.cfg.Hash.U(key), mask: make([]uint64, e.maskWords)}
			sh.items[key] = it
		}
		muts := uint64(0)
		for w := 0; w < mw; w++ {
			added := st.Masks[j*mw+w] &^ it.mask[w]
			if added != 0 {
				it.mask[w] |= added
				n := bits.OnesCount64(added)
				sh.activeEntries += n
				muts += uint64(n)
			}
		}
		if countMuts {
			sh.muts.Add(muts)
		}
		sh.mu.Unlock()
	}
	for i, ents := range st.Entries {
		for _, en := range ents {
			sh := e.shards[e.shardOf(en.Key)]
			seed := e.cfg.Hash.U(en.Key)
			rank := sampling.Rank(sampling.RankPriority, seed, en.Weight)
			sh.mu.Lock()
			if sh.heaps[i].update(en.Key, en.Weight, rank) && countMuts {
				sh.muts.Add(1)
			}
			sh.mu.Unlock()
		}
	}
}
