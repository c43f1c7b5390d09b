// Package hotset implements P4DB's offline hot-tuple detection and the
// replicated hot index (Sections 3.1 and 6.1).
//
// Detection replays a representative sample of the workload statement by
// statement, counts per-tuple access frequencies, and selects the most
// frequently accessed tuples as the hot-set (bounded by the switch
// capacity). The same sample, restricted to the selected tuples once,
// yields the transaction-access graph the declustered layout is computed
// from and the projections its refinement replays.
//
// At runtime every database node holds an Index replica: a small map from
// tuple key to its switch slot. It is consulted on every transaction to
// classify it hot/cold/warm and, for hot transactions, to build the packet
// header (single- vs multi-pass, required pipeline locks).
package hotset

import (
	"cmp"
	"slices"

	"repro/internal/layout"
	"repro/internal/store"
)

// Access is one statement of a sampled transaction: which tuple it touches
// and which earlier statement it depends on (-1 for none).
type Access struct {
	Key       store.GlobalKey
	DependsOn int
}

// HotSet is the result of offline detection.
type HotSet struct {
	ids   map[store.GlobalKey]int32 // hot tuple -> dense id (index into proj.tuples)
	freq  map[store.GlobalKey]int64
	graph *layout.Graph
	proj  Projections
}

// Projections are the sampled transactions restricted to the hot set,
// keeping those with at least two hot accesses: exactly the projections
// folded into the access graph, retained so layout refinement can replay
// them without projecting the sample again. Accesses are dense hot-tuple
// ids, stored back to back in one buffer.
type Projections struct {
	tuples []layout.TupleID // dense id -> tuple, in selection order
	ids    []int32          // every projection's dense ids, concatenated
	ends   []int32          // ends[i]: end offset of projection i in ids
}

// Len returns the number of retained projections.
func (p *Projections) Len() int { return len(p.ends) }

// Txn returns projection i's dense tuple ids, in statement order.
func (p *Projections) Txn(i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.ids[start:p.ends[i]]
}

// NumTuples returns the number of dense ids (the hot-set size).
func (p *Projections) NumTuples() int { return len(p.tuples) }

// Tuple maps a dense id back to its tuple.
func (p *Projections) Tuple(id int32) layout.TupleID { return p.tuples[id] }

// countFreq tallies per-tuple access frequencies over the sample.
func countFreq(samples [][]Access) map[store.GlobalKey]int64 {
	freq := make(map[store.GlobalKey]int64)
	for _, txn := range samples {
		for _, a := range txn {
			freq[a.Key]++
		}
	}
	return freq
}

// Detect replays the sampled transactions and returns the topK most
// frequently accessed tuples together with their access graph. Sample
// transactions that touch both hot and cold tuples contribute their hot
// subset to the graph (those are exactly the switch sub-transactions warm
// transactions will run).
func Detect(samples [][]Access, topK int) *HotSet {
	freq := countFreq(samples)
	order := rankFreqs(freq, 0)
	return build(freq, order[:min(topK, len(order))], samples)
}

// kf pairs a tuple with its sampled frequency for the detection sorts.
// kfCompare orders by descending frequency, ascending key on ties — the
// exact total order the detectors have always used.
type kf struct {
	k store.GlobalKey
	f int64
}

func kfCompare(a, b kf) int {
	if a.f != b.f {
		if a.f > b.f {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.k, b.k)
}

// build makes the hot-set of the selected tuples (in selection order,
// duplicates ignored) and projects the sample onto it once: every
// projection with at least two accesses is folded into the access graph
// and retained for layout refinement.
func build(freq map[store.GlobalKey]int64, selected []kf, samples [][]Access) *HotSet {
	h := &HotSet{
		ids:   make(map[store.GlobalKey]int32, len(selected)),
		freq:  freq,
		graph: layout.NewGraph(),
	}
	// The hot tuples' sampled frequencies sum to every hot access in the
	// sample, an upper bound on what the projections keep, and each kept
	// projection holds at least two of them: both buffers are allocated
	// once.
	var hotAccesses int64
	for _, e := range selected {
		if _, dup := h.ids[e.k]; dup {
			continue
		}
		h.ids[e.k] = int32(len(h.proj.tuples))
		h.proj.tuples = append(h.proj.tuples, layout.TupleID(e.k))
		h.graph.AddTuple(layout.TupleID(e.k))
		hotAccesses += freq[e.k]
	}
	p := &h.proj
	p.ids = make([]int32, 0, hotAccesses)
	p.ends = make([]int32, 0, min(int64(len(samples)), hotAccesses/2))
	// The access buffers are reused across transactions; AddTxn does not
	// retain its argument.
	var kept []layout.Access
	var remap []int
	for _, txn := range samples {
		start := len(p.ids)
		kept, p.ids = restrictInto(h.ids, txn, kept[:0], p.ids, &remap)
		if len(kept) < 2 {
			p.ids = p.ids[:start]
			continue
		}
		h.graph.AddTxn(kept)
		p.ends = append(p.ends, int32(len(p.ids)))
	}
	return h
}

// restrictInto projects txn onto the hot keys, appending the kept
// accesses to kept and their dense ids to ids, and using *remap as
// scratch (grown on demand). Dependency indices are remapped to the kept
// subset; dependencies through dropped cold accesses become independent.
func restrictInto(hot map[store.GlobalKey]int32, txn []Access, kept []layout.Access, ids []int32, remap *[]int) ([]layout.Access, []int32) {
	if cap(*remap) < len(txn) {
		*remap = make([]int, len(txn))
	}
	rm := (*remap)[:len(txn)]
	for i := range rm {
		rm[i] = -1
	}
	for i, a := range txn {
		id, ok := hot[a.Key]
		if !ok {
			continue
		}
		dep := -1
		if a.DependsOn >= 0 && a.DependsOn < i {
			dep = rm[a.DependsOn]
		}
		rm[i] = len(kept)
		kept = append(kept, layout.Access{Tuple: layout.TupleID(a.Key), DependsOn: dep})
		ids = append(ids, id)
	}
	return kept, ids
}

// DetectAuto selects the hot-set without a preset size. Tuples sampled
// fewer than three times are noise and never hot. Among the rest, sorted
// by descending frequency, the detector cuts at the last point where the
// frequency drops by 4x or more between neighbours — under the paper's
// skews the hot tuples sit on a plateau one to two orders of magnitude
// above the cold tail, so that gap is the hot/cold boundary. If no such
// gap exists, every frequently-sampled tuple is hot (e.g. a 100%-hot
// workload). The result is capped at maxK tuples (the switch capacity),
// keeping the most frequent; the remainder stays on the database nodes
// (Figure 17's spill path).
func DetectAuto(samples [][]Access, maxK int) *HotSet {
	freq := countFreq(samples)
	ranked := rankFreqs(freq, NoiseFloor)
	return build(freq, ranked[:autoCut(ranked, maxK)], samples)
}

// NoiseFloor is the minimum sample tally for a key to count as a
// detection candidate; rarer keys are sampling noise, never hot.
const NoiseFloor = 3

// rankFreqs filters keys tallied below floor out of a tally and returns
// the remainder in detection order (descending frequency, ascending key).
func rankFreqs(freq map[store.GlobalKey]int64, floor int64) []kf {
	kept := make([]kf, 0, len(freq))
	for k, f := range freq {
		if f >= floor {
			kept = append(kept, kf{k, f})
		}
	}
	slices.SortFunc(kept, kfCompare)
	return kept
}

// autoCut applies DetectAuto's plateau heuristic to an already-ranked
// list: cut at the last >=4x inter-neighbour drop, cap at maxK.
func autoCut(ranked []kf, maxK int) int {
	k := len(ranked)
	for i := len(ranked) - 1; i > 0; i-- {
		if ranked[i-1].f >= 4*ranked[i].f {
			k = i
			break
		}
	}
	if k > maxK {
		k = maxK
	}
	return k
}

// SelectTop applies DetectAuto's selection without the plateau cut to an
// already-folded frequency tally: every key above the noise floor,
// frequency-ranked, capped at maxK, in detection order. Online
// re-detection uses it because a sliding window holds orders of magnitude
// fewer samples than the offline replay — a plateau cut calibrated for
// dense tallies truncates a sparse one to its first handful of keys,
// while the controller's sticky-resident policy already provides the
// stability the cut exists to buy.
func SelectTop(freq map[store.GlobalKey]int64, maxK int) []store.GlobalKey {
	ranked := rankFreqs(freq, NoiseFloor)
	if len(ranked) > maxK {
		ranked = ranked[:maxK]
	}
	keys := make([]store.GlobalKey, len(ranked))
	for i := range keys {
		keys[i] = ranked[i].k
	}
	return keys
}

// FromKeys builds a hot-set from an a-priori known tuple list (the
// operator pinned the offload set explicitly), truncated to the maxK most
// frequently sampled tuples. The access graph is still derived from the
// sample so the layout algorithm has co-access information.
func FromKeys(keys []store.GlobalKey, samples [][]Access, maxK int) *HotSet {
	freq := countFreq(samples)
	decorated := make([]kf, len(keys))
	for i, k := range keys {
		decorated[i] = kf{k, freq[k]}
	}
	slices.SortFunc(decorated, kfCompare)
	return build(freq, decorated[:min(maxK, len(decorated))], samples)
}

// Contains reports whether key was selected as hot.
func (h *HotSet) Contains(k store.GlobalKey) bool {
	_, ok := h.ids[k]
	return ok
}

// Freq returns the sampled access frequency of key.
func (h *HotSet) Freq(k store.GlobalKey) int64 { return h.freq[k] }

// Size returns the number of hot tuples.
func (h *HotSet) Size() int { return len(h.ids) }

// Keys returns the hot tuples in deterministic (sorted) order.
func (h *HotSet) Keys() []store.GlobalKey {
	out := make([]store.GlobalKey, len(h.proj.tuples))
	for i, t := range h.proj.tuples {
		out[i] = store.GlobalKey(t)
	}
	slices.Sort(out)
	return out
}

// Graph returns the transaction-access graph over the hot tuples, ready
// for the layout algorithm.
func (h *HotSet) Graph() *layout.Graph { return h.graph }

// Projections returns the sample's retained hot projections, ready for
// layout refinement.
func (h *HotSet) Projections() *Projections { return &h.proj }

// Index is the per-node replica of the hot-tuple index. It is small (a few
// thousand entries) so on a real node it lives in CPU caches; here the map
// lookup itself stands in for that cost.
type Index struct {
	slots   map[store.GlobalKey]layout.Slot
	spilled map[store.GlobalKey]struct{}
}

// BuildIndex combines the hot-set and the computed layout: hot tuples with
// a switch slot are indexed; hot tuples that did not fit (the layout was
// computed over a capacity-capped subset, Figure 17) are recorded as
// spilled and treated as cold at runtime.
func BuildIndex(h *HotSet, l *layout.Layout) *Index {
	ix := &Index{
		slots:   make(map[store.GlobalKey]layout.Slot, l.NumTuples()),
		spilled: make(map[store.GlobalKey]struct{}),
	}
	for _, k := range h.Keys() {
		if s, ok := l.SlotOf(layout.TupleID(k)); ok {
			ix.slots[k] = s
		} else {
			ix.spilled[k] = struct{}{}
		}
	}
	return ix
}

// Lookup returns the switch slot of key, if key is on the switch.
func (ix *Index) Lookup(k store.GlobalKey) (layout.Slot, bool) {
	s, ok := ix.slots[k]
	return s, ok
}

// OnSwitch reports whether key is stored on the switch.
func (ix *Index) OnSwitch(k store.GlobalKey) bool {
	_, ok := ix.slots[k]
	return ok
}

// Spilled reports whether key was detected hot but did not fit on the
// switch.
func (ix *Index) Spilled(k store.GlobalKey) bool {
	_, ok := ix.spilled[k]
	return ok
}

// Keys returns the on-switch keys in deterministic (sorted) order — the
// iteration the live-migration diff walks the old placement in.
func (ix *Index) Keys() []store.GlobalKey {
	out := make([]store.GlobalKey, 0, len(ix.slots))
	for k := range ix.slots {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// OnSwitchCount returns the number of indexed (on-switch) tuples.
func (ix *Index) OnSwitchCount() int { return len(ix.slots) }

// SpilledCount returns the number of spilled hot tuples.
func (ix *Index) SpilledCount() int { return len(ix.spilled) }
