package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped profile.proto message. The benchmark needs
// only each sample's CPU time and its call stack's function names, so it
// reads those fields with a minimal protobuf decoder instead of a profile
// library.

// profSample is one stack (innermost frame first) and its CPU time.
type profSample struct {
	frames []string
	ns     int64
}

func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]int64{}    // function id → string index
	var strs []string
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{ns: s.vals[len(s.vals)-1]} // [samples, cpu ns]
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, passing varint fields as v and
// length-delimited fields as b.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// profiledPackages are the program packages whose host CPU share the
// traced run reports; samples in other program packages count as "other".
var profiledPackages = []string{"tlb", "mem", "hw", "vm", "pt", "core", "urpc", "cluster", "fork", "server", "redis", "stats", "mspace"}

// gcFrames mark a sample as allocation or garbage-collection work.
var gcFrames = []string{"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"}

// classify attributes one sample: malloc/GC work anywhere on the stack
// first, then the benchmark's own client (package main), then the program
// package of the innermost program frame, else "other" (scheduler, netpoll
// and syscalls outside any program frame).
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "client"
		}
	}
	const prefix = "spacejmp/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, p := range profiledPackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

// profileShares returns each class's share of the profile's CPU time, and
// the CPU time spent under the router workers' run loop.
func profileShares(samples []profSample) (shares map[string]float64, workerNs int64) {
	var total int64
	byClass := map[string]int64{}
	for _, s := range samples {
		total += s.ns
		byClass[classify(s.frames)] += s.ns
		for _, f := range s.frames {
			if f == "spacejmp/internal/cluster.(*Router).runWorker" {
				workerNs += s.ns
				break
			}
		}
	}
	shares = map[string]float64{}
	for c, ns := range byClass {
		shares[c] = float64(ns) / float64(max(total, 1))
	}
	return shares, workerNs
}
