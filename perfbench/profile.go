package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The decoder below reads only
// what attribution needs: each sample's stack of function names, leaf first,
// and its CPU nanoseconds.

// sample is one profile sample: its stack, leaf first, with inlined frames
// expanded, and the CPU time it stands for.
type sample struct {
	stack []string
	count int64 // profiler ticks
	nanos int64
}

// Field numbers in profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

// parseProfile decodes a gzipped CPU profile into samples. A CPU profile
// has two sample types: the tick count, then CPU nanoseconds.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		funcNames = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		nTypes    int
	)
	err = fields(raw, func(num int, val uint64, msg []byte) error {
		switch num {
		case profSampleType:
			nTypes++
		case profSample:
			var s rawSample
			err := fields(msg, func(num int, val uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, val, sub)
				case sampleValue:
					return appendVarints(&s.values, val, sub)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, val uint64, sub []byte) error {
				switch num {
				case locID:
					id = val
				case locLine:
					return fields(sub, func(num int, val uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(msg, func(num int, val uint64, _ []byte) error {
				switch num {
				case funcID:
					id = val
				case funcName:
					name = val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if nTypes != 2 {
		return nil, fmt.Errorf("profile: %d sample types, want 2 (samples, cpu)", nTypes)
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.values) != nTypes {
			return nil, fmt.Errorf("profile: sample has %d values, want %d", len(rs.values), nTypes)
		}
		s := sample{count: int64(rs.values[0]), nanos: int64(rs.values[1])}
		for _, l := range rs.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i < uint64(len(strs)) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either the varint value (wire types 0, 1, 5) or
// the bytes of a length-delimited field (wire type 2).
func fields(b []byte, fn func(num int, val uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var val uint64
		var msg []byte
		switch wire {
		case 0:
			val, n = varint(b)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("profile: truncated fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				val = val<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, val, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (msg holds the
// varints) or not (val is one element).
func appendVarints(dst *[]uint64, val uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, val)
		return nil
	}
	for len(msg) > 0 {
		v, n := varint(msg)
		if n == 0 {
			return errors.New("profile: truncated packed varint")
		}
		*dst = append(*dst, v)
		msg = msg[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when b is
// truncated or the varint overlong).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// Buckets of the CPU partition. Every sample lands in exactly one.
const (
	bucketSim     = "sim"
	bucketMachine = "machine"
	bucketRemote  = "remote"
	bucketCore    = "core"
	bucketApps    = "apps"
	bucketGC      = "gc"
	bucketAlloc   = "alloc"
	bucketOther   = "other"
)

// buckets lists the partition in report order; the first four are the
// layers a message crosses.
var buckets = []string{bucketSim, bucketMachine, bucketRemote, bucketCore, bucketApps, bucketGC, bucketAlloc, bucketOther}

// layerPackages maps the repository's package paths to their bucket. The
// program bodies the benchmark loads itself count as application code.
var layerPackages = map[string]string{
	"repro/internal/sim":       bucketSim,
	"repro/internal/machine":   bucketMachine,
	"repro/internal/remote":    bucketRemote,
	"repro/internal/core":      bucketCore,
	"repro":                    bucketApps,
	"repro/perfbench/programs": bucketApps,
}

// gcFrames are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collector work: background marking and sweeping,
// mark assists charged to allocating goroutines, and write-barrier flushes.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.wbBufFlush":        true,
	"runtime.markroot":          true,
}

// classify assigns a stack (leaf first) to a bucket. Garbage collection
// wins over everything, then time under the allocator. Otherwise the sample
// belongs to the nearest repository frame from the leaf, so a runtime
// helper (a map lookup, a memmove) is charged to the layer that called it;
// a stack with no repository frame (scheduler, idle) is other.
func classify(stack []string) string {
	alloc := false
	for _, fn := range stack {
		if gcFrames[fn] {
			return bucketGC
		}
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			alloc = true
		}
	}
	if alloc {
		return bucketAlloc
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg != "repro" && !strings.HasPrefix(pkg, "repro/") {
			continue
		}
		if b, ok := layerPackages[pkg]; ok {
			return b
		}
		if strings.HasPrefix(pkg, "repro/internal/apps/") {
			return bucketApps
		}
		return bucketOther
	}
	return bucketOther
}

// funcPackage returns the import path of a symbol name as the profiler
// prints it: "repro/internal/core.(*NodeRT).deliver.func1" belongs to
// "repro/internal/core", "runtime.memmove" to "runtime".
func funcPackage(fn string) string {
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// partition sums the samples' CPU time and profiler ticks per bucket.
type partition struct {
	nanos map[string]int64
	ticks map[string]int64
	total int64
}

func partitionOf(samples []sample) partition {
	p := partition{nanos: map[string]int64{}, ticks: map[string]int64{}}
	for _, s := range samples {
		b := classify(s.stack)
		p.nanos[b] += s.nanos
		p.ticks[b] += s.count
		p.total += s.nanos
	}
	return p
}

// frac is the bucket's share of profiled CPU time.
func (p partition) frac(bucket string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.nanos[bucket]) / float64(p.total)
}
