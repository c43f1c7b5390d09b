package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profiler records one CPU profile per phase window of a traced repeat
// and adds its per-layer split to vals. Phases are separate profile
// windows rather than pprof labels because labels do not reach the
// background GC workers, and their time belongs to the phase they run in.
// An untraced profiler does nothing.
type profiler struct {
	on     bool
	outDir string
	buf    bytes.Buffer
	n      int
	vals   map[string]float64 // traced-only metrics by name
}

func newProfiler(on bool, outDir string) *profiler {
	return &profiler{on: on, outDir: outDir, vals: map[string]float64{}}
}

func (p *profiler) start() error {
	if !p.on {
		return nil
	}
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the window, keeps the profile file beside the results and
// charges its samples to phase, scaled by weight (a phase window that
// covers several set-ups charges each its share).
func (p *profiler) stop(phase string, weight float64) error {
	if !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	p.n++
	name := filepath.Join(p.outDir, fmt.Sprintf("%s-%d-%d.pprof", phase, os.Getpid(), p.n))
	if err := os.WriteFile(name, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	split, err := layerCPU(p.buf.Bytes(), phase)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for layer, s := range split {
		p.vals[phase+"."+layer+".cpu_s"] += s * weight
	}
	return nil
}

// recordHeap notes the live heap after set-up. It forces a collection,
// so only traced repeats, whose timings are not end-to-end, take it.
func (p *profiler) recordHeap() {
	if !p.on {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.vals["setup.heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

// tracedOnly returns the accumulated split, or nil when not tracing.
func (p *profiler) tracedOnly() map[string]float64 {
	if !p.on {
		return nil
	}
	return p.vals
}

// layerCPU sums a CPU profile's time, in seconds, by the layers of
// phaseLayers[phase]. A sample belongs to the innermost repro/internal
// package on its stack, so runtime work (maps, allocation, GC assists)
// lands on the layer that caused it; background GC workers form "gc";
// in the serve phase, everything under the server's engine loop is
// "engine_loop" and everything under a client call is "loadgen".
// Anything else is "other".
func layerCPU(gz []byte, phase string) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, l := range phaseLayers[phase] {
		known[l] = true
	}
	out := map[string]float64{}
	for _, s := range prof.samples {
		if len(s.values) < 2 {
			return nil, errors.New("sample without a cpu value")
		}
		layer := prof.classify(s.locs, phase == "serve")
		if !known[layer] {
			layer = "other"
		}
		out[layer] += float64(s.values[1]) / 1e9 // cpu/nanoseconds
	}
	return out, nil
}

const internalPrefix = "repro/internal/"

// classify names the layer of one stack, given leaf-first location ids.
func (p *profile) classify(locs []uint64, serving bool) string {
	innermost := ""
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.funcNames[fn]
			if name == "runtime.gcBgMarkWorker" {
				return "gc"
			}
			if serving && strings.HasPrefix(name, internalPrefix+"server.(*Server).engineLoop") {
				return "engine_loop"
			}
			if serving && strings.HasPrefix(name, internalPrefix+"loadgen.") {
				return "loadgen"
			}
			if innermost == "" && strings.HasPrefix(name, internalPrefix) {
				pkg := strings.TrimPrefix(name, internalPrefix)
				innermost, _, _ = strings.Cut(pkg, ".")
			}
		}
	}
	if innermost == "" {
		return "other"
	}
	return innermost
}

// profile is the part of a pprof profile.proto the split needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := walkFields(b, func(field int, v uint64, sub []byte) error {
		switch field {
		case fProfileSample:
			var s sample
			err := walkFields(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case fSampleLocation:
					return appendPacked(&s.locs, v, sub)
				case fSampleValue:
					var vs []uint64
					if err := appendPacked(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(sub, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := walkFields(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case fProfileStrings:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcNames[id] = strs[idx]
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, sub a length-delimited payload.
func walkFields(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one
// unpacked value (sub == nil) or as a packed run.
func appendPacked(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// uvarint decodes a varint, returning 0 bytes read on truncation.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
