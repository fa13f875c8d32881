package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os/exec"
	"strings"
	"testing"
)

// TestEveryPackageHasALayer fails when the module gains a package that
// the layer table does not name, so its CPU time cannot silently land in
// "other".
func TestEveryPackageHasALayer(t *testing.T) {
	out, err := exec.Command("go", "list", "emcast/...").Output()
	if err != nil {
		t.Fatalf("go list emcast/...: %v", err)
	}
	pkgs := strings.Fields(string(out))
	if len(pkgs) < 30 {
		t.Fatalf("go list printed only %d packages: %q", len(pkgs), out)
	}
	for _, pkg := range pkgs {
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("package %s maps to no layer; add it to layerOf", pkg)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"emcast/internal/gossip.(*Gossip).forward":       "emcast/internal/gossip",
		"emcast/internal/ids.(*Set[...]).Add":            "emcast/internal/ids",
		"emcast/internal/sim.New.func1":                  "emcast/internal/sim",
		"emcast.(*Peer).Multicast":                       "emcast",
		"runtime.mallocgc":                               "runtime",
		"internal/poll.(*FD).Write":                      "internal/poll",
		"math/rand.(*Rand).Int63":                        "math/rand",
		"main.(*simLoad).deliver":                        "main",
		"emcast/internal/trace.fold[go.shape.struct {}]": "emcast/internal/trace",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb encodes the few protobuf shapes the profile fold reads.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(field, q)
}

// synthProfile builds a gzip-compressed CPU profile with one sample per
// stack (leaf first, each frame its own location except inlined groups
// joined by "+"), each worth nanos[i].
func synthProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	funcs := map[string]uint64{}
	fnID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		strs = append(strs, name)
		var f pb
		f.varint(1, id)
		f.varint(2, uint64(len(strs)-1))
		prof.bytes(5, f.b)
		return id
	}
	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			var loc pb
			loc.varint(1, locID)
			for _, name := range strings.Split(frame, "+") {
				var line pb
				line.varint(1, fnID(name))
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		var s pb
		if i%2 == 0 {
			s.packed(1, locs...)
			s.packed(2, 1, uint64(nanos[i]))
		} else { // the unpacked encoding is legal too
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, 1)
			s.varint(2, uint64(nanos[i]))
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldChargesTheInnermostLayer(t *testing.T) {
	stacks := [][]string{
		{"runtime.mallocgc", "emcast/internal/gossip.(*Gossip).forward", "emcast/internal/sim.(*Runner).RunFor", "main.main"},
		{"syscall.Syscall", "internal/poll.(*FD).Write", "emcast/internal/neem.writeFrame", "runtime.goexit"},
		{"runtime.memmove+emcast/internal/ids.(*Set).Add", "emcast/internal/lazy.(*Lazy).Receive"},
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		{"syscall.Syscall", "net.(*netFD).Read"},
		{"math/rand.(*Rand).Int63"},
		{"crypto/sha256.block"},
	}
	nanos := []int64{10, 20, 40, 80, 160, 320, 640}
	got, err := foldProfile(synthProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"gossip": 10, "neem": 20, "ids": 40, "runtime": 80, "net": 160, "rand": 320, "other": 640,
	}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("layer %s = %d ns, want %d (all: %v)", layer, got[layer], ns, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // field 2, length 127, one byte present
	zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile accepted")
	}
}
