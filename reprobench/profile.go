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

// cpuModules are the groups cpu_share.<module> reports, in output
// order. Every sampled leaf frame falls into exactly one.
var cpuModules = []string{
	"sched", "core", "race", "trace", "sketch", "search", "exec",
	"vsys", "ssync", "mem", "obs", "apps", "runtime", "other",
}

// moduleOf maps a profiled function name to its cpuModules group: a
// repro/internal package by name (the vector clocks count as race, the
// app kit as apps), the Go runtime and its internal packages as
// runtime, and everything else as other.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "vclock":
			return "race"
		case "appkit", "apps":
			return "apps"
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/") {
		return "runtime"
	}
	return "other"
}

// cpuShares decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns each module's share of the sampled CPU
// time, attributing every sample to its leaf frame (the innermost
// inlined function of the first location).
func cpuShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		strs     []string
		samples  []sample
		funcName = map[uint64]uint64{} // function id -> string index
		leafFunc = map[uint64]uint64{} // location id -> leaf function id
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var values []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := uvarints(v, b)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
					return err
				case 2:
					vs, err := uvarints(v, b)
					values = append(values, vs...)
					return err
				}
				return nil
			})
			// The last value of a CPU sample is its CPU time.
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if fn != 0 {
						return nil
					}
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
	}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[leafFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[moduleOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (fixed-width fields are skipped).
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// uvarints returns a repeated varint field's values: v itself when the
// field arrived unpacked (b nil), else the packed values in b.
func uvarints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
