package main

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bulkpim/internal/sim.(*Kernel).Run":                                   "sim",
		"bulkpim/internal/memctrl.(*Controller).Enqueue.func1":                 "memctrl",
		"bulkpim/internal/workload/ycsb.zeta":                                  "ycsb",
		"bulkpim/internal/workload/tpch.(*thread).Next":                        "tpch",
		"bulkpim.RunExperiment":                                                "bulkpim",
		"bulkpim.(*Server).artifactStatus":                                     "bulkpim",
		"bulkpim/internal/runner.RunJobs[go.shape.struct { bulkpim/x.y int }]": "runner",
		"runtime.mallocgc":                                                     "",
		"encoding/json.(*encodeState).marshal":                                 "",
		"main.runSim":                                                          "",
		"net/http.(*conn).serve":                                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerSamplesInnermostBulkpimFrame(t *testing.T) {
	samples := []profSample{
		// runtime work lands on the bulkpim frame that caused it.
		{Count: 3, Funcs: []string{"runtime.mallocgc", "bulkpim/internal/mem.(*Pool).Get", "bulkpim/internal/cache.(*LLC).scan"}},
		{Count: 2, Funcs: []string{"bulkpim/internal/sim.(*Kernel).fire", "bulkpim/internal/system.(*System).Run"}},
		{Count: 4, Funcs: []string{"runtime.gcBgMarkWorker"}},
		{Count: 1, Funcs: []string{"bulkpim/internal/coord.(*Pool).loop"}},
	}
	counts := layerSamples(samples, profileLayers)
	want := map[string]int64{"mem": 3, "sim": 2, "runtime": 4, "other_bulkpim": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("layerSamples = %v, want %v", counts, want)
	}
	sh, total := shares(counts, profileLayers)
	if total != 10 || sh["mem.self_pct"] != 30 || sh["runtime.other_pct"] != 40 || sh["cache.self_pct"] != 0 {
		t.Errorf("shares = %v (total %d)", sh, total)
	}
	var sum float64
	for _, l := range profileLayers {
		sum += sh[l+".self_pct"]
	}
	if sum+sh["runtime.other_pct"] != 100 {
		t.Errorf("shares sum to %v, want 100", sum+sh["runtime.other_pct"])
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num, v uint64) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, num<<3), v)
	return p
}

func (p *pb) bytes(num uint64, data []byte) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, num<<3|2), uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestParseProfileInlinedFrames(t *testing.T) {
	prof := &pb{}
	for _, s := range []string{"", "runtime.memmove", "bulkpim/internal/pim.(*ArrayImage).Store", "bulkpim/internal/pim.(*Module).tryStart", "main.main"} {
		prof.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id).b)
	}
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).b }
	// Location 1: memmove. Location 2: Store inlined into tryStart.
	// Location 3: main.
	prof.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(1)).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, line(2)).bytes(4, line(3)).b)
	prof.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(4)).b)
	// One sample with packed fields, one with unpacked ones.
	prof.bytes(2, (&pb{}).bytes(1, packed(1, 2, 3)).bytes(2, packed(5, 50_000_000)).b)
	prof.bytes(2, (&pb{}).varint(1, 3).varint(2, 2).varint(2, 20_000_000).b)

	samples, err := parseProfile(prof.b)
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{Count: 5, Funcs: []string{"runtime.memmove", "bulkpim/internal/pim.(*ArrayImage).Store", "bulkpim/internal/pim.(*Module).tryStart", "main.main"}},
		{Count: 2, Funcs: []string{"main.main"}},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parseProfile = %+v, want %+v", samples, want)
	}
	if got := layerSamples(samples, profileLayers); !reflect.DeepEqual(got, map[string]int64{"pim": 5, "runtime": 2}) {
		t.Errorf("layerSamples = %v", got)
	}
}

var spinSink float64

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			spinSink += float64(i) * 1.0000001
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profile caught no samples")
	}
	found := false
	for _, s := range samples {
		if s.Count <= 0 || len(s.Funcs) == 0 {
			t.Fatalf("sample without weight or stack: %+v", s)
		}
		for _, fn := range s.Funcs {
			found = found || strings.HasSuffix(fn, ".TestParseRuntimeProfile")
		}
	}
	if !found {
		t.Errorf("no sample names the spinning test function")
	}
}
