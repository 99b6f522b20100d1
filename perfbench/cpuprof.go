package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// attributeProfile reads a runtime/pprof CPU profile and sums each
// sample's CPU nanoseconds into one cpuBuckets entry: "gc" when the stack
// runs the Go collector's work, otherwise the innermost frame that belongs
// to a package of the module. The module has no profile-reading dependency,
// so this decodes the few protobuf fields it needs itself.
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs []uint64
			vals []int64
		}
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s struct {
				locs []uint64
				vals []int64
			}
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n, w int, v uint64, b []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
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
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.vals) < 2 {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out[bucketOf(frames)] += s.vals[1] // values are [samples, cpu nanoseconds]
	}
	return out, nil
}

// gcFrames mark stacks doing the collector's work, including allocation
// assists charged to a mutator.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"}

var workloadPkgs = map[string]bool{"tpcc": true, "smallbank": true, "tatp": true, "socialgraph": true}

// bucketOf attributes one stack, innermost frame first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "drtm.") {
			return "drtm"
		}
		rest, ok := strings.CutPrefix(f, "drtm/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if workloadPkgs[pkg] {
			return "workload"
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	return "other"
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either its packed or its
// one-value-per-field encoding.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
