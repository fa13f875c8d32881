package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps every package of the emcast module, and this benchmark's
// own, to the layer its CPU time is charged to. layers_test.go fails when
// `go list emcast/...` prints a package missing here, so new code cannot
// silently fall into "other".
var layerOf = map[string]string{
	"emcast":                     "emcast",
	"emcast/internal/core":       "core",
	"emcast/internal/peer":       "core",
	"emcast/internal/peertest":   "core",
	"emcast/internal/emunet":     "emunet",
	"emcast/internal/faults":     "faults",
	"emcast/internal/gossip":     "gossip",
	"emcast/internal/ids":        "ids",
	"emcast/internal/lazy":       "lazy",
	"emcast/internal/membership": "membership",
	"emcast/internal/monitor":    "strategy",
	"emcast/internal/ranking":    "strategy",
	"emcast/internal/strategy":   "strategy",
	"emcast/internal/msg":        "msg",
	"emcast/internal/neem":       "neem",
	"emcast/internal/obs":        "obs",
	"emcast/internal/sim":        "sim",
	"emcast/internal/stats":      "sim",
	"emcast/internal/topology":   "topology",
	"emcast/internal/trace":      "trace",
	"emcast/internal/disstrace":  "trace",

	// Harnesses, commands and examples this benchmark never runs.
	"emcast/cmd/emucast":             "harness",
	"emcast/internal/experiment":     "harness",
	"emcast/internal/live":           "harness",
	"emcast/internal/scenario":       "harness",
	"emcast/internal/sweep":          "harness",
	"emcast/examples/disstrace":      "harness",
	"emcast/examples/isphubs":        "harness",
	"emcast/examples/live":           "harness",
	"emcast/examples/livetcp":        "harness",
	"emcast/examples/observe":        "harness",
	"emcast/examples/quickstart":     "harness",
	"emcast/examples/resilience":     "harness",
	"emcast/examples/scenarios":      "harness",
	"emcast/examples/selforganizing": "harness",
	"emcast/examples/sweeps":         "harness",

	// The benchmark itself: load generation and output checks.
	"main":                   "load",
	"emcast/benchmark":       "load",
	"emcast/benchmark/check": "load",
}

// bucketOf names the layer of a sample whose stack holds no frame from
// the table above: work the Go runtime, the network stack or math/rand
// did on nobody's behalf that the stack shows (GC workers, the netpoller).
func bucketOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg" ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync":
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "os" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "net"
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "rand"
	}
	return "other"
}

// cpuLayers lists the layers whose CPU seconds a traced run reports.
var cpuLayers = []string{
	"sim", "emunet", "topology", "ids", "trace", "lazy", "gossip",
	"membership", "core", "strategy", "msg", "neem", "emcast", "obs",
	"load", "runtime", "net", "rand", "other",
}

// packageOf extracts the import path from a Go symbol name such as
// "emcast/internal/gossip.(*Gossip).forward" or "runtime.mallocgc".
func packageOf(fn string) string {
	// The import path ends at the first dot after its last slash; the
	// receiver or generic arguments that follow may hold slashes of
	// their own, so look for the slash before any '(' or '['.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile charges each CPU profile sample to a layer: the innermost
// frame whose package is in layerOf, so runtime, sync and syscall work
// counts for the layer that asked for it; a stack with no such frame goes
// to the bucket of its leaf frame. It returns nanoseconds per layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := ""
		leaf := ""
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				pkg := packageOf(p.funcName[fn])
				if leaf == "" {
					leaf = pkg
				}
				if l, ok := layerOf[pkg]; ok {
					layer = l
					break
				}
			}
			if layer != "" {
				break
			}
		}
		if layer == "" {
			layer = bucketOf(leaf)
		}
		out[layer] += s.nanos
	}
	return out, nil
}

// profile is the part of a pprof CPU profile the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// parseProfile decodes a gzip-compressed profile.proto as written by
// runtime/pprof: samples (field 2), locations (4), functions (5) and the
// string table (6). The CPU profile's second sample value is nanoseconds.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a nanoseconds value")
			}
			s.nanos = vals[1]
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
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
			if err != nil {
				return err
			}
			funcStr[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one value
// (v, b == nil) or a packed run (b).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
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
