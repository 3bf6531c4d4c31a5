package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Layer attribution of CPU and allocation samples. A sample belongs to
// the innermost frame of the program (p2pltr/internal/<pkg>), except
// that encoding/gob frames beneath it make it "gob"; samples whose
// innermost non-runtime frame is the benchmark's own code are "bench",
// and samples with no program frame at all (GC workers, the scheduler)
// are "runtime".

const internalPrefix = "p2pltr/internal/"

func layerOf(funcs []string) string {
	gob := false
	for _, f := range funcs { // leaf first
		switch {
		case strings.HasPrefix(f, internalPrefix):
			if gob {
				return "gob"
			}
			pkg := f[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		case strings.HasPrefix(f, "main."):
			return "bench"
		case strings.HasPrefix(f, "encoding/gob."):
			gob = true
		}
	}
	return "runtime"
}

// cpuProfile folds a runtime/pprof CPU profile into CPU nanoseconds per
// layer. It decodes just the parts of profile.proto it needs.
func cpuProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		funcOf  = map[uint64]int64{}    // function id -> name string index
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, w int, v uint64, b []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcOf[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		var names []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := funcOf[f]; i >= 0 && int(i) < len(strs) {
					names = append(names, strs[i])
				}
			}
		}
		into[layerOf(names)] += s.vals[1]
	}
	return nil
}

func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// fields walks one protobuf message, calling fn for each field with its
// varint value (wire type 0) or payload (wire type 2).
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// memSnapshot is the cumulative sampled allocation per stack.
type memSnapshot map[[32]uintptr][2]int64 // stack -> (bytes, objects)

func takeMem() memSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(memSnapshot, len(recs))
	for _, r := range recs {
		out[r.Stack0] = [2]int64{r.AllocBytes, r.AllocObjects}
	}
	return out
}

// memByLayer attributes the allocations made between two snapshots,
// unsampled the way pprof scales heap samples.
func memByLayer(before, after memSnapshot, into map[string]float64) {
	rate := float64(runtime.MemProfileRate)
	for stk, v := range after {
		b0 := before[stk]
		bytes, objs := float64(v[0]-b0[0]), float64(v[1]-b0[1])
		if bytes <= 0 || objs <= 0 {
			continue
		}
		scaled := bytes / (1 - math.Exp(-bytes/objs/rate))
		n := 0
		for n < len(stk) && stk[n] != 0 {
			n++
		}
		var fns []string
		frames := runtime.CallersFrames(stk[:n])
		for {
			f, more := frames.Next()
			fns = append(fns, f.Function)
			if !more {
				break
			}
		}
		into[layerOf(fns)] += scaled
	}
}
