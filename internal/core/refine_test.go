package core

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/pisa"
	"repro/internal/store"
	"repro/internal/workload"
)

// refineLayoutReference is the map-based refinement that replays the raw
// sample: every pass projects each sampled transaction onto the hot set
// again and groups its distinct tuples by register array in a fresh map.
// refineLayout must reproduce it slot for slot. It also returns the first
// pass's collision count, so a test can check that refinement fired.
func refineLayoutReference(hs *hotset.HotSet, samples [][]hotset.Access, spec layout.Spec) (*layout.Layout, int) {
	g := hs.Graph()
	l := layout.Optimal(g, spec)
	first := -1
	for iter := 0; iter < 4; iter++ {
		collisions := 0
		for _, txn := range samples {
			var kept []layout.TupleID
			for _, a := range txn {
				if hs.Contains(a.Key) {
					kept = append(kept, layout.TupleID(a.Key))
				}
			}
			if len(kept) < 2 {
				continue
			}
			byArray := make(map[[2]uint8]layout.TupleID, len(kept))
			for _, t := range kept {
				s, ok := l.SlotOf(t)
				if !ok {
					continue
				}
				arr := [2]uint8{s.Stage, s.Array}
				if prev, clash := byArray[arr]; clash && prev != t {
					collisions++
					for b := 0; b < 8; b++ {
						g.AddTxn([]layout.Access{{Tuple: prev, DependsOn: -1}, {Tuple: t, DependsOn: -1}})
					}
				} else {
					byArray[arr] = t
				}
			}
		}
		if first < 0 {
			first = collisions
		}
		if collisions == 0 {
			break
		}
		l = layout.Optimal(g, spec)
	}
	return l, first
}

func defaultSpec() layout.Spec {
	sw := pisa.DefaultConfig()
	return layout.Spec{Stages: sw.Stages, ArraysPerStage: sw.ArraysPerStage, SlotsPerArray: sw.SlotsPerArray}
}

// TestRefineLayoutMatchesMapReference pins refineLayout's decisions: on
// seeded TPC-C, SmallBank and YCSB-A samples, through both the automatic
// detector and the operator-pinned hot set (Config.ExplicitHot, which no
// pinned digest covers), it must place every tuple in the same slot as
// the map-based reference. SmallBank's and YCSB-A's hot sets separate
// cleanly over the default switch's arrays, so they run on a four-array
// switch, where the first layout still leaves collisions to refine.
func TestRefineLayoutMatchesMapReference(t *testing.T) {
	const nodes, sampleSize = 4, 20000
	narrow := layout.Spec{Stages: 2, ArraysPerStage: 2, SlotsPerArray: 1024}
	for _, tc := range []struct {
		workload string
		spec     layout.Spec
	}{{"tpcc", defaultSpec()}, {"smallbank", narrow}, {"ycsb-a", narrow}} {
		name, spec := tc.workload, tc.spec
		gen, err := workload.ByName(name, nodes)
		if err != nil {
			t.Fatal(err)
		}
		samples := sampleTxns(gen, 7, sampleSize, nodes)
		// The pinned set is the detected one cut to three quarters, so
		// FromKeys' frequency truncation runs too.
		pinned := hotset.DetectAuto(samples, spec.Capacity()).Keys()
		paths := []struct {
			name   string
			detect func() *hotset.HotSet
		}{
			{"auto", func() *hotset.HotSet { return hotset.DetectAuto(samples, spec.Capacity()) }},
			{"explicit", func() *hotset.HotSet { return hotset.FromKeys(pinned, samples, len(pinned)*3/4) }},
		}
		for _, path := range paths {
			detect := path.detect
			t.Run(name+"/"+path.name, func(t *testing.T) {
				want, collisions := refineLayoutReference(detect(), samples, spec)
				if collisions == 0 {
					t.Fatal("precondition: the first refinement pass found no collision, so refinement never fired")
				}
				got := refineLayout(detect(), spec)
				wantTuples, gotTuples := want.Tuples(), got.Tuples()
				if len(gotTuples) != len(wantTuples) {
					t.Fatalf("laid out %d tuples, reference %d", len(gotTuples), len(wantTuples))
				}
				for i, tup := range wantTuples {
					ws, _ := want.SlotOf(tup)
					gs, ok := got.SlotOf(tup)
					if gotTuples[i] != tup || !ok || gs != ws {
						t.Fatalf("tuple %v: slot %+v (laid out %v), reference %+v", tup, gs, ok, ws)
					}
				}
			})
		}
	}
}

// TestRefinePassAllocsFlatInSampleSize keeps per-transaction allocation
// out of the refinement replay: one pass allocates only its per-pass
// scratch, however many sampled transactions it replays.
func TestRefinePassAllocsFlatInSampleSize(t *testing.T) {
	const nodes = 4
	spec := defaultSpec()
	allocs := func(n int) float64 {
		gen, err := workload.ByName("tpcc", nodes)
		if err != nil {
			t.Fatal(err)
		}
		hs := hotset.DetectAuto(sampleTxns(gen, 3, n, nodes), spec.Capacity())
		if hs.Projections().Len() == 0 {
			t.Fatalf("%d-txn sample: no hot projection to replay", n)
		}
		l := layout.Optimal(hs.Graph(), spec)
		return testing.AllocsPerRun(5, func() { reinforceCollisions(hs.Graph(), hs.Projections(), l) })
	}
	small, large := allocs(1000), allocs(20000)
	if large > small {
		t.Fatalf("one refinement pass allocates %.0f times over 20k sampled txns, %.0f over 1k: allocation grows with the sample", large, small)
	}
}

// detectKeyPerWord is the cache key hashed one 8-byte word per Write, the
// reference for detectKey's chunked hashing.
func detectKeyPerWord(cfg Config, samples [][]hotset.Access, cap int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(cfg.Seed)
	w64(uint64(cap))
	w64(uint64(cfg.Switch.Stages))
	w64(uint64(cfg.Switch.ArraysPerStage))
	w64(uint64(cfg.Switch.SlotsPerArray))
	if cfg.RandomLayout {
		w64(1)
	} else {
		w64(0)
	}
	w64(uint64(len(cfg.ExplicitHot)))
	for _, k := range cfg.ExplicitHot {
		w64(uint64(k))
	}
	for _, txn := range samples {
		w64(uint64(len(txn)))
		for _, a := range txn {
			w64(uint64(a.Key))
			w64(uint64(int64(a.DependsOn)))
		}
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// TestDetectKeyChunkedMatchesPerWord checks the chunked cache-key hash
// against the per-word one, with pinned keys long enough to cross a
// chunk boundary on their own.
func TestDetectKeyChunkedMatchesPerWord(t *testing.T) {
	gen, err := workload.ByName("tpcc", 4)
	if err != nil {
		t.Fatal(err)
	}
	samples := sampleTxns(gen, 5, 5000, 4)
	cfg := DefaultConfig()
	cfg.Seed = 5
	for _, pinned := range [][]store.GlobalKey{nil, make([]store.GlobalKey, 3000)} {
		for i := range pinned {
			pinned[i] = store.GlobalKey(i * 7919)
		}
		cfg.ExplicitHot = pinned
		cfg.RandomLayout = pinned != nil
		if got, want := detectKey(cfg, samples, 1000), detectKeyPerWord(cfg, samples, 1000); got != want {
			t.Fatalf("%d pinned keys: chunked key %x, per-word key %x", len(pinned), got, want)
		}
	}
}
